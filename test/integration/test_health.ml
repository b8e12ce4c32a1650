(* Tests for the observability readers: Report edge cases and the
   line-numbered loader, the metrics fold's histogram log-bucket
   boundaries and pinned export, the flight recorder (wrap-around, dump
   format, crash dumps from injected aborts), bench comparison, streaming
   progress, and golden Health values on a tiny deterministic run. *)

module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr
module Sink = Twmc_obs.Sink
module Metrics = Twmc_obs.Metrics
module Report = Twmc_obs.Report
module Health = Twmc_obs.Health
module Progress = Twmc_obs.Progress
module Flight = Twmc_obs.Flight_recorder
module Fault = Twmc_util.Fault
module Synth = Twmc_workload.Synth

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let with_temp_file f =
  let path = Filename.temp_file "twmc_health" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path s = Out_channel.with_open_bin path (fun oc ->
    Out_channel.output_string oc s)

(* ------------------------------------------------- report edge cases *)

let meta_line =
  Printf.sprintf
    "{\"v\": %d, \"ev\": \"meta\", \"name\": \"twmc-trace\", \"t_ns\": 0}"
    Sink.schema_version

let test_report_empty_trace () =
  with_temp_file (fun path ->
      write_file path "";
      let events = Report.load path in
      check "no events" 0 (List.length events);
      checkb "empty trace invalid (no meta)" true (Report.validate events <> []))

let test_report_meta_only () =
  with_temp_file (fun path ->
      write_file path (meta_line ^ "\n");
      let events = Report.load path in
      check "one event" 1 (List.length events);
      Alcotest.(check (list string)) "meta-only trace valid" []
        (Report.validate events);
      (* The summary renderer must not choke on a trace with no spans. *)
      let b = Buffer.create 64 in
      Format.fprintf (Format.formatter_of_buffer b) "%a@?" Report.pp_summary
        events;
      checkb "summary renders" true (Buffer.length b > 0))

let test_report_malformed_line_number () =
  with_temp_file (fun path ->
      write_file path
        (meta_line ^ "\n"
       ^ "{\"v\": 2, \"ev\": \"point\", \"name\": \"p\", \"t_ns\": 1}\n"
       ^ "this is not json\n");
      match Report.load path with
      | _ -> Alcotest.fail "malformed line 3 must raise"
      | exception Failure m ->
          checkb
            (Printf.sprintf "error names line 3 (%s)" m)
            true
            (let needle = ":3:" in
             let rec has i =
               i + String.length needle <= String.length m
               && (String.sub m i (String.length needle) = needle || has (i + 1))
             in
             has 0))

let test_report_non_object_line () =
  with_temp_file (fun path ->
      write_file path (meta_line ^ "\n[1, 2]\n");
      match Report.load path with
      | _ -> Alcotest.fail "non-object line must raise"
      | exception Failure m ->
          checkb "reason mentions object" true
            (String.length m > 0))

let test_validate_names_line () =
  with_temp_file (fun path ->
      (* Line 3's span_end id does not match any open span: the problem
         message must point at line 3, not "event 3". *)
      write_file path
        (meta_line ^ "\n"
       ^ "{\"v\": 2, \"ev\": \"span_begin\", \"id\": 1, \"name\": \"s\", \
          \"t_ns\": 1}\n"
       ^ "{\"v\": 2, \"ev\": \"span_end\", \"id\": 9, \"name\": \"s\", \
          \"t_ns\": 2}\n");
      match Report.validate (Report.load path) with
      | [] -> Alcotest.fail "mismatched span_end must be a problem"
      | p :: _ ->
          checkb (Printf.sprintf "problem cites line (%s)" p) true
            (let needle = "line 3" in
             let rec has i =
               i + String.length needle <= String.length p
               && (String.sub p i (String.length needle) = needle || has (i + 1))
             in
             has 0))

(* Schema v2 readers accept v1 traces: only versions above the writer's
   are rejected. *)
let test_v1_trace_still_valid () =
  let ev ?(v = 1) ?(id = 0) ?(t_ns = 1) kind name =
    { Report.v; ev = kind; id; parent = 0; name; t_ns; attrs = []; line = 0 }
  in
  Alcotest.(check (list string)) "v1 trace valid" []
    (Report.validate
       [ ev ~t_ns:0 "meta" "twmc-trace"; ev ~id:1 "span_begin" "s";
         ev ~id:1 ~t_ns:2 "span_end" "s" ]);
  checkb "future version rejected" true
    (Report.validate
       [ ev ~v:(Sink.schema_version + 1) ~t_ns:0 "meta" "twmc-trace" ]
    <> [])

(* --------------------------------------- histogram bucket boundaries *)

(* Default bounds are 10^(i/3 - 9) for i in 0..39; exactness at the
   decade points (i = 0, 27, 39) is what the boundary cases rely on. *)
let bound i = 10.0 ** ((float_of_int i /. 3.0) -. 9.0)

let histogram_buckets value =
  let route_net =
    { Report.v = Sink.schema_version; ev = "point"; id = 0; parent = 0;
      name = "route.net"; t_ns = 0; line = 0;
      attrs = [ ("alternatives", Report.Num value) ] }
  in
  match Metrics.of_events [ route_net ] with
  | Report.Obj sections -> (
      match List.assoc "histograms" sections with
      | Report.Obj [ ("route.alternatives_per_net", Report.Obj h) ] -> (
          match List.assoc "buckets" h with
          | Report.List bs ->
              List.map
                (function
                  | Report.Obj kvs -> List.assoc "le" kvs
                  | _ -> Alcotest.fail "bucket not an object")
                bs
          | _ -> Alcotest.fail "no buckets list")
      | _ -> Alcotest.fail "histograms section shape")
  | _ -> Alcotest.fail "metrics json not an object"

let test_histogram_bucket_boundaries () =
  (* 0.0 lands in the first bucket (le 1e-9). *)
  (match histogram_buckets 0.0 with
  | [ Report.Num le ] ->
      Alcotest.(check (float 0.0)) "zero -> first bound" (bound 0) le
  | _ -> Alcotest.fail "zero: one bucket expected");
  (* 1.0 is exactly bound 27 (10^0): boundary values belong to their own
     bucket, not the next one. *)
  (match histogram_buckets 1.0 with
  | [ Report.Num le ] -> Alcotest.(check (float 0.0)) "one -> 10^0" 1.0 le
  | _ -> Alcotest.fail "one: one bucket expected");
  (* 1e4 is exactly the last finite bound (10^4). *)
  (match histogram_buckets 1e4 with
  | [ Report.Num le ] ->
      Alcotest.(check (float 0.0)) "1e4 -> last bound" (bound 39) le
  | _ -> Alcotest.fail "1e4: one bucket expected");
  (* Anything above the last bound goes to the overflow bucket. *)
  match histogram_buckets 1e5 with
  | [ Report.Str "inf" ] -> ()
  | _ -> Alcotest.fail "1e5 must land in the overflow bucket"

(* ----------------------------------------------------- flight recorder *)

let test_flight_ring () =
  Flight.clear ();
  checkb "enabled by default" true (Flight.enabled ());
  Flight.note ~i:7 ~f:1.5 ~detail:"d" "a";
  Flight.note "b";
  check "two recorded" 2 (Flight.recorded ());
  check "nothing dropped" 0 (Flight.dropped ());
  (match Flight.entries () with
  | [ a; b ] ->
      checks "site a" "a" a.Flight.site;
      checkb "i kept" true (a.Flight.i = Some 7);
      checkb "f kept" true (a.Flight.f = Some 1.5);
      checkb "detail kept" true (a.Flight.detail = Some "d");
      checkb "bare note has no attrs" true
        (b.Flight.i = None && b.Flight.f = None && b.Flight.detail = None);
      checkb "monotone t_ns" true (b.Flight.t_ns >= a.Flight.t_ns);
      check "seq numbers" 1 (b.Flight.seq - a.Flight.seq)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  (* Disabled: a note is a no-op. *)
  Flight.set_enabled false;
  Flight.note "ghost";
  Flight.set_enabled true;
  check "disabled note not recorded" 2 (Flight.recorded ());
  Flight.clear ();
  check "clear empties" 0 (Flight.recorded ())

let test_flight_wraparound () =
  Flight.clear ();
  let extra = 5 in
  for i = 1 to Flight.capacity + extra do
    Flight.note ~i (Printf.sprintf "s%d" i)
  done;
  check "holds capacity" Flight.capacity (Flight.recorded ());
  check "overwritten counted" extra (Flight.dropped ());
  (match Flight.entries () with
  | [] -> Alcotest.fail "ring empty after wrap"
  | oldest :: _ as es ->
      checks "oldest survivor" (Printf.sprintf "s%d" (extra + 1))
        oldest.Flight.site;
      let newest = List.nth es (List.length es - 1) in
      checks "newest last"
        (Printf.sprintf "s%d" (Flight.capacity + extra))
        newest.Flight.site);
  Flight.clear ()

let test_flight_dump_validates () =
  Flight.clear ();
  Flight.note ~i:1 "alpha";
  Flight.note ~f:2.5 ~detail:"why" "beta";
  with_temp_file (fun path ->
      Flight.dump path;
      let events = Report.load path in
      Alcotest.(check (list string)) "dump is a valid trace" []
        (Report.validate events);
      (match events with
      | m :: rest ->
          checks "meta name" "twmc-flight" m.Report.name;
          Alcotest.(check (list string)) "sites in order" [ "alpha"; "beta" ]
            (List.map (fun (e : Report.event) -> e.Report.name) rest)
      | [] -> Alcotest.fail "dump empty"));
  Flight.clear ()

(* The acceptance scenario: an injected Fault.Abort in stage-2 refinement
   escapes the resilient driver (simulated process death), and the flight
   dump's last events name the failing site. *)
let small_nl =
  lazy
    (Synth.generate ~seed:21
       { Synth.default_spec with
         Synth.n_cells = 8;
         n_nets = 24;
         n_pins = 80;
         frac_custom = 0.4 })

let quick_params =
  { Twmc_place.Params.default with
    Twmc_place.Params.a_c = 15;
    refinement_iterations = 1 }

let test_abort_leaves_flight_dump () =
  with_temp_file (fun path ->
      Sys.remove path;
      Flight.clear ();
      Fault.arm [ { Fault.site = "stage2.refine"; nth = 1; kind = Fault.Abort } ];
      let aborted =
        Fun.protect ~finally:Fault.disarm (fun () ->
            match
              Twmc.Flow.run_resilient ~params:quick_params ~seed:3
                ~max_retries:0 ~flight:path (Lazy.force small_nl)
            with
            | _ -> false
            | exception Fault.Abort _ -> true)
      in
      checkb "abort escapes the driver" true aborted;
      checkb "flight dump written" true (Sys.file_exists path);
      let events = Report.load path in
      Alcotest.(check (list string)) "dump validates" []
        (Report.validate events);
      let last_sites =
        List.filteri
          (fun i _ -> i >= List.length events - 2)
          (List.map (fun (e : Report.event) -> e.Report.name) events)
      in
      checkb
        (Printf.sprintf "last events name the failing site (%s)"
           (String.concat ", " last_sites))
        true
        (List.mem "stage2.refine" last_sites));
  Flight.clear ()

(* A clean run must NOT leave a dump behind. *)
let test_clean_run_no_dump () =
  with_temp_file (fun path ->
      Sys.remove path;
      Flight.clear ();
      let rr =
        Twmc.Flow.run_resilient ~params:quick_params ~seed:3 ~flight:path
          (Lazy.force small_nl)
      in
      checkb "run clean" true (rr.Twmc.Flow.status = Twmc.Flow.Clean);
      checkb "no dump on clean exit" false (Sys.file_exists path))

(* ----------------------------------------------------- bench comparison *)

let test_compare_benches () =
  let old_b = [ ("k1", 100.0); ("k2", 100.0); ("gone", 1.0) ] in
  let new_b = [ ("k1", 131.0); ("k2", 125.0); ("fresh", 1.0) ] in
  let c = Report.compare_benches ~max_regress_pct:25.0 old_b new_b in
  check "rows intersect" 2 (List.length c.Report.rows);
  Alcotest.(check (list string)) "only old" [ "gone" ] c.Report.only_old;
  Alcotest.(check (list string)) "only new" [ "fresh" ] c.Report.only_new;
  (match c.Report.regressions with
  | [ r ] ->
      checks "k1 regressed" "k1" r.Report.kernel;
      Alcotest.(check (float 1e-9)) "delta pct" 31.0 r.Report.delta_pct
  | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs));
  (* Exactly at the budget is NOT a regression (strict >): a self-compare
     of a committed baseline must always pass. *)
  let at = Report.compare_benches ~max_regress_pct:25.0 old_b
      [ ("k1", 125.0); ("k2", 125.0) ] in
  check "boundary not a regression" 0 (List.length at.Report.regressions);
  let self = Report.compare_benches ~max_regress_pct:25.0 old_b old_b in
  check "self-compare clean" 0 (List.length self.Report.regressions);
  Alcotest.(check (float 0.0)) "self delta 0" 0.0
    (List.fold_left (fun acc r -> acc +. abs_float r.Report.delta_pct) 0.0
       self.Report.rows)

let test_load_bench () =
  with_temp_file (fun path ->
      write_file path
        "{\"kernels\": [{\"name\": \"a\", \"ns_per_op\": 12.5},\n\
        \ {\"name\": \"b\", \"ns_per_op\": 7}]}\n";
      (match Report.load_bench path with
      | [ ("a", a); ("b", b) ] ->
          Alcotest.(check (float 0.0)) "a ns" 12.5 a;
          Alcotest.(check (float 0.0)) "b ns" 7.0 b
      | _ -> Alcotest.fail "two kernels expected");
      (* What the bench harness writes reads back to the same rows. *)
      let rows =
        [ ("x \"quoted\\ name\"", 1234.5678); ("y", 7.0); ("z", 0.1) ]
      in
      write_file path (Report.bench_to_string rows);
      Alcotest.(check (list (pair string (float 0.0))))
        "written form round-trips" rows (Report.load_bench path);
      write_file path "{\"nope\": 1}";
      checkb "malformed raises with path" true
        (match Report.load_bench path with
        | _ -> false
        | exception Failure m ->
            String.length m > String.length path
            && String.sub m 0 (String.length path) = path))

(* ------------------------------------------------------------ progress *)

let test_progress_fold () =
  let st = Progress.create () in
  let ev ?(attrs = []) kind name =
    { Report.v = Sink.schema_version; ev = kind; id = 0; parent = 0; name;
      t_ns = 1; attrs; line = 0 }
  in
  (match Progress.feed st (ev "meta" "twmc-trace") with
  | Some line -> checkb "meta line mentions schema" true
      (String.length line > 0)
  | None -> Alcotest.fail "meta must produce a line");
  checkb "not finished mid-run" false (Progress.finished st);
  (* Noisy stage-2 temperatures are sampled 1-in-8: feeding 8 yields
     exactly one line. *)
  let lines = ref 0 in
  for i = 1 to 8 do
    match
      Progress.feed st
        (ev "point" "stage2.temp"
           ~attrs:[ ("t", Report.Num (float_of_int i));
                    ("acceptance", Report.Num 0.5);
                    ("cost", Report.Num 1.0) ])
    with
    | Some _ -> incr lines
    | None -> ()
  done;
  check "stage2 temps sampled 1-in-8" 1 !lines;
  (match
     Progress.feed st
       (ev "point" "flow.status" ~attrs:[ ("status", Report.Str "clean") ])
   with
  | Some _ -> ()
  | None -> Alcotest.fail "flow.status must produce a line");
  checkb "finished after flow.status" true (Progress.finished st)

(* ------------------------------------------------------ health goldens *)

(* Deterministic tiny flow (same workload as test_obs): the health
   analytics must reproduce these values exactly on every run — they are
   a golden spot-check of the whole span/point -> Health pipeline. *)
let traced_run ?(nl = Lazy.force small_nl) () =
  let sink = Sink.memory () in
  let r =
    Twmc.Flow.run ~params:quick_params ~seed:3 ~jobs:1 ~replicas:2
      ~obs:(Obs.create sink) nl
  in
  (r, Sink.memory_events sink)

(* The [--metrics] document of a traced run, as a reader parses it. *)
let metrics_json (_, events) =
  Report.parse_json
    (Twmc_obs.Json.to_string
       (Metrics.of_events (List.map Report.of_sink_event events)))

let health_of_run () =
  let _, events = traced_run () in
  Health.of_events (List.map Report.of_sink_event events)

let test_health_golden () =
  let h = health_of_run () in
  checkb "winning replica identified" true (h.Health.replica = Some 1);
  check "stage-1 temperatures" 70 (List.length h.Health.temps);
  check "stage-2 temperatures" 31 (List.length h.Health.s2_temps);
  (match h.Health.temps with
  | first :: _ ->
      Alcotest.(check (float 1e-9)) "hot acceptance" 1.0
        first.Health.acceptance;
      Alcotest.(check (float 1e-9)) "hot target" 1.0 first.Health.target;
      let last = List.nth h.Health.temps (List.length h.Health.temps - 1) in
      Alcotest.(check (float 1e-9)) "cold acceptance" (91.0 /. 120.0)
        last.Health.acceptance;
      Alcotest.(check (float 1e-9)) "cold target" 0.0 last.Health.target;
      checkb "window narrowed" true (last.Health.wx < first.Health.wx);
      checkb "estimator sampled" true
        (Float.is_finite first.Health.est && Float.is_finite last.Health.est)
  | [] -> Alcotest.fail "no stage-1 temps");
  (* Per-class efficacy, exact counts. *)
  let cls name =
    match List.find_opt (fun c -> c.Health.cls = name) h.Health.classes with
    | Some c -> c
    | None -> Alcotest.failf "class %s missing" name
  in
  check "displace attempts" 10502 (cls "displace").Health.attempts;
  check "displace accepts" 7557 (cls "displace").Health.accepts;
  check "pin attempts" 39504 (cls "pin").Health.attempts;
  check "orient accepts" 79 (cls "orient").Health.accepts;
  check "interchange attempts" 886 (cls "interchange").Health.attempts;
  checkb "accepted displacements lower cost" true
    ((cls "displace").Health.dcost < 0.0);
  check "seven stage-1 classes" Twmc_place.Moves.n_classes
    (List.length h.Health.classes);
  (* Stage 2 only displaces and moves pins. *)
  let s2 name =
    match List.find_opt (fun c -> c.Health.cls = name) h.Health.s2_classes with
    | Some c -> c
    | None -> Alcotest.failf "s2 class %s missing" name
  in
  check "s2 displace attempts" 6240 (s2 "displace").Health.attempts;
  check "s2 orient attempts" 0 (s2 "orient").Health.attempts;
  check "s2 variant attempts" 0 (s2 "variant").Health.attempts;
  (* Router overflow per refinement pass. *)
  (match h.Health.overflow with
  | [ o1; o2 ] ->
      check "pass 1" 1 o1.Health.pass;
      Alcotest.(check (float 0.0)) "pass 1 before" 12.0 o1.Health.before;
      Alcotest.(check (float 0.0)) "pass 1 after" 6.0 o1.Health.after;
      Alcotest.(check (float 0.0)) "pass 2 after" 17.0 o2.Health.after
  | os -> Alcotest.failf "expected 2 overflow passes, got %d" (List.length os));
  (* This quick profile (a_c=15) deliberately under-anneals: health must
     say so.  Both the non-frozen terminal acceptance and the off-profile
     curve are expected findings here. *)
  check "findings" 3 (List.length h.Health.findings);
  checkb "not-frozen finding" true
    (List.exists
       (fun f -> String.length f >= 10 && String.sub f 0 10 = "not frozen")
       h.Health.findings)

(* The annealing loop's event contract on the same run, pinned to
   captured values: every per-temperature and per-class point (name and
   attributes, in emission order; timestamps excluded), the stage-1
   temperature count (quench loops included) and the stage counters.
   [Health] and [Progress] read exactly these events. *)
let anneal_point_names =
  [ "stage1.temp"; "stage2.temp"; "stage1.classes"; "stage2.classes" ]

let test_anneal_contract_pinned () =
  let ((r, events) as run) = traced_run () in
  let lines =
    List.filter_map
      (function
        | Sink.Point { name; attrs; _ } when List.mem name anneal_point_names
          ->
            Some (name, Sink.jsonl_of_event (Sink.Point { name; t_ns = 0; attrs }))
        | _ -> None)
      events
  in
  Alcotest.(check (list (pair string int)))
    "points per name"
    [ ("stage1.temp", 140); ("stage2.temp", 31); ("stage1.classes", 14);
      ("stage2.classes", 7) ]
    (List.map
       (fun n -> (n, List.length (List.filter (fun (m, _) -> m = n) lines)))
       anneal_point_names);
  checks "point transcript digest" "5a3637138d8609f11a28e0eaed9e6970"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map snd lines))));
  check "temperatures visited" 96
    r.Twmc.Flow.stage1.Twmc_place.Stage1.temperatures_visited;
  let counters =
    match metrics_json run with
    | Report.Obj sections -> (
        match List.assoc "counters" sections with
        | Report.Obj kvs ->
            List.filter_map
              (fun (k, v) ->
                match v with
                | Report.Num n
                  when String.starts_with ~prefix:"stage1." k
                       || String.starts_with ~prefix:"stage2." k ->
                    Some (k, int_of_float n)
                | _ -> None)
              kvs
        | _ -> Alcotest.fail "counters not an object")
    | _ -> Alcotest.fail "metrics not an object"
  in
  Alcotest.(check (list (pair string int)))
    "stage counters"
    [ ("stage1.class.displace.accepts", 14898);
      ("stage1.class.displace.attempts", 21755);
      ("stage1.class.displace_inverted.accepts", 653);
      ("stage1.class.displace_inverted.attempts", 6857);
      ("stage1.class.interchange.accepts", 914);
      ("stage1.class.interchange.attempts", 1860);
      ("stage1.class.interchange_inverted.accepts", 101);
      ("stage1.class.interchange_inverted.attempts", 946);
      ("stage1.class.orient.accepts", 199);
      ("stage1.class.orient.attempts", 6204);
      ("stage1.class.pin.accepts", 58609);
      ("stage1.class.pin.attempts", 81799);
      ("stage1.class.variant.accepts", 5500);
      ("stage1.class.variant.attempts", 8143);
      ("stage1.moves.aspect_rescues", 653);
      ("stage1.moves.attempts", 23880);
      ("stage1.moves.displacements", 14898);
      ("stage1.moves.interchange_rescues", 101);
      ("stage1.moves.interchanges", 1015);
      ("stage1.moves.orient_changes", 199);
      ("stage1.moves.pin_moves", 58609);
      ("stage1.moves.variant_changes", 5500);
      ("stage2.class.displace.accepts", 1988);
      ("stage2.class.displace.attempts", 6240);
      ("stage2.class.displace_inverted.accepts", 0);
      ("stage2.class.displace_inverted.attempts", 0);
      ("stage2.class.interchange.accepts", 0);
      ("stage2.class.interchange.attempts", 0);
      ("stage2.class.interchange_inverted.accepts", 0);
      ("stage2.class.interchange_inverted.attempts", 0);
      ("stage2.class.orient.accepts", 0);
      ("stage2.class.orient.attempts", 0);
      ("stage2.class.pin.accepts", 6812);
      ("stage2.class.pin.attempts", 23256);
      ("stage2.class.variant.accepts", 0);
      ("stage2.class.variant.attempts", 0);
      ("stage2.moves.attempts", 6240);
      ("stage2.moves.displacements", 1988);
      ("stage2.moves.pin_moves", 6812);
      ("stage2.refinements", 1) ]
    counters

(* ------------------------------------------------------ metrics export *)

(* The same run on a constrained netlist, so the export carries the
   [cons.*] gauges. *)
let constrained_run () =
  let module Mutate = Twmc_workload.Mutate in
  traced_run
    ~nl:
      (Mutate.apply_all
         ~rng:(Twmc_sa.Rng.create ~seed:(21 lxor 0x5a5a))
         [ Mutate.Add_blockages 2; Mutate.Conflicting_fixed 1;
           Mutate.Zero_slack_regions 1; Mutate.Tight_density 1 ]
         (Lazy.force small_nl))
    ()

(* The whole export of two runs, pinned to captured values: every counter,
   gauge, histogram bucket and series sample.  Only [flow.elapsed_s], a
   wall-clock reading, is left out.  On a mismatch the export is printed so
   the moved key can be found. *)
let test_metrics_export_pinned () =
  let pinned name run ~keys ~digest =
    let text =
      match metrics_json (run ()) with
      | Report.Obj sections ->
          Twmc_obs.Json.to_string
            (Report.Obj
               (List.map
                  (function
                    | "gauges", Report.Obj kvs ->
                        ( "gauges",
                          Report.Obj (List.remove_assoc "flow.elapsed_s" kvs) )
                    | section -> section)
                  sections))
      | _ -> Alcotest.fail "metrics not an object"
    in
    let got = Digest.to_hex (Digest.string text) in
    if got <> digest then prerr_endline text;
    (match Report.parse_json text with
    | Report.Obj sections ->
        Alcotest.(check (list (pair string int)))
          (name ^ ": keys per section") keys
          (List.map
             (fun (s, v) ->
               (s, match v with Report.Obj kvs -> List.length kvs | _ -> -1))
             sections)
    | _ -> Alcotest.fail "metrics not an object");
    checks (name ^ ": export digest") digest got
  in
  pinned "small" traced_run
    ~keys:[ ("counters", 46); ("gauges", 3); ("histograms", 1); ("series", 11) ]
    ~digest:"4d19192f80620e58fd8cd5b632253198";
  pinned "constrained" constrained_run
    ~keys:[ ("counters", 46); ("gauges", 8); ("histograms", 1); ("series", 11) ]
    ~digest:"0a8bc87a002a10f82dcd96053d85859d"

let test_health_deterministic () =
  let j1 = Twmc_obs.Json.to_string (Health.to_json (health_of_run ())) in
  let j2 = Twmc_obs.Json.to_string (Health.to_json (health_of_run ())) in
  checks "health identical across runs" j1 j2

let test_health_empty () =
  let h = Health.of_events [] in
  checkb "empty trace -> empty health" true
    (h.Health.temps = [] && h.Health.s2_temps = [] && h.Health.classes = []
    && h.Health.overflow = []);
  (* target_acceptance endpoints. *)
  Alcotest.(check (float 1e-9)) "profile starts at 1" 1.0
    (Health.target_acceptance ~index:0 ~n:10);
  Alcotest.(check (float 1e-9)) "profile ends at 0" 0.0
    (Health.target_acceptance ~index:9 ~n:10);
  Alcotest.(check (float 1e-9)) "singleton profile" 1.0
    (Health.target_acceptance ~index:0 ~n:1)

(* ------------------------------------------------------ rendered text *)

(* A fixed hand-built trace rendered by both readers, pinned to the exact
   text: two replicas and a winner (only replica 1's curve may show), a
   stage-1 temperature without [cost], and two routing passes, the second
   without [length]. *)
let pinned_events =
  let ev ?(id = 0) ?(parent = 0) kind name t_ns attrs =
    { Report.v = Sink.schema_version; ev = kind; id; parent; name; t_ns;
      attrs; line = 0 }
  in
  let n x = Report.Num x in
  let temp replica t acceptance cost =
    ev "point" "stage1.temp" 0
      ([ ("replica", n replica); ("t", n t); ("acceptance", n acceptance) ]
      @ (match cost with Some c -> [ ("cost", n c) ] | None -> [])
      @ [ ("wx", n (t /. 10.0)); ("wy", n (t /. 20.0)); ("est", n 900.0) ])
  in
  let classes replica =
    ev "point" "stage1.classes" 0
      [ ("replica", n replica); ("cls", Report.Str "displace");
        ("attempts", n 60.0); ("accepts", n (if replica = 1.0 then 0.0 else 9.0));
        ("dcost", n (-12.5)) ]
  in
  let assign before after length =
    ev "point" "route.assign" 0
      ([ ("overflow_before", n before); ("overflow_after", n after) ]
      @ (match length with Some l -> [ ("length", n l) ] | None -> [])
      @ [ ("nets", n 20.0) ])
  in
  List.mapi
    (fun i e -> { e with Report.t_ns = 1000 * i })
    [ ev "meta" "twmc-trace" 0 [];
      ev ~id:1 "span_begin" "flow" 0 [];
      ev ~id:2 ~parent:1 "span_begin" "stage1" 0 [];
      temp 0.0 1000.0 0.97 (Some 520.0);
      temp 1.0 1000.0 0.95 (Some 500.0);
      temp 0.0 100.0 0.6 (Some 470.0);
      temp 1.0 100.0 0.55 None;
      temp 1.0 10.0 0.2 (Some 410.0);
      classes 0.0;
      classes 1.0;
      ev "point" "stage1.winner" 0 [ ("index", n 1.0); ("cost", n 410.0) ];
      ev ~id:2 "span_end" "stage1" 0 [];
      ev ~id:3 ~parent:1 "span_begin" "stage2" 0 [];
      ev "point" "stage2.temp" 0
        [ ("t", n 5.0); ("acceptance", n 0.1); ("cost", n 400.0) ];
      assign 12.0 6.0 (Some 3000.0);
      assign 6.0 9.0 None;
      ev ~id:3 "span_end" "stage2" 0 [];
      ev ~id:1 "span_end" "flow" 0 [] ]

let test_rendered_text_pinned () =
  let render pp x =
    let b = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer b in
    Format.fprintf ppf "%a@?" pp x;
    Buffer.contents b
  in
  checks "report summary"
    "trace: 18 events, 3 spans, wall 16us\n\
     \n\
     per-stage wall time (top-level spans):\n\
     \  flow                     16us\n\
     \n\
     top-5 slowest spans:\n\
     \  flow                     16us\n\
     \  stage1                   9us\n\
     \  stage2                   4us\n\
     \n\
     stage-1 acceptance curve (3 temperatures, replica 1):\n\
     \  T=1000         accept= 95.0%  cost=500\n\
     \  T=100          accept= 55.0%  cost=?\n\
     \  T=10           accept= 20.0%  cost=410\n\
     \n\
     router overflow (per routing pass):\n\
     \  pass 1  X 12 -> 6  (L=3000, 20 nets)\n\
     \  pass 2  X 6 -> 9  (L=?, 20 nets)\n\
     "
    (render Report.pp_summary pinned_events);
  checks "health"
    "anneal health: 3 stage-1 temperatures (winning replica 1)\n\
     \n\
     stage-1 acceptance vs target profile:\n\
     \  T=1000         accept= 95.0% target=100.0% window=100x50  est=900\n\
     \  T=100          accept= 55.0% target= 50.0% window=10x5  est=900\n\
     \  T=10           accept= 20.0% target=  0.0% window=1x0  est=900\n\
     \n\
     stage-1 move-class efficacy:\n\
     \  class                   attempts   accepts    rate    sum dcost\n\
     \  displace                      60         0    0.0%        -12.5\n\
     \n\
     stage-2 refinement: 1 temperatures\n\
     \n\
     router overflow decay:\n\
     \  pass 1  X 12 -> 6\n\
     \  pass 2  X 6 -> 9\n\
     \n\
     findings (3):\n\
     \  - not frozen: final acceptance 20% (expected to approach 0 at the terminal temperature)\n\
     \  - move class displace starved: 60 attempts, 0 accepts (wasted generate-function traffic)\n\
     \  - router overflow not decaying: pass 1 ended at 6, final pass at 9\n\
     "
    (render Health.pp (Health.of_events pinned_events));
  (* Integers stay exact on the trace: a float-only writer would round
     max_int to 4611686018427387904. *)
  checks "trace line"
    "{\"v\":2,\"ev\":\"span_begin\",\"id\":7,\"parent\":3,\"name\":\"s\",\
     \"t_ns\":42,\"attrs\":{\"seed\":4611686018427387903,\
     \"low\":-4611686018427387904,\"x\":0.10000000000000001,\"bad\":\"nan\",\
     \"up\":\"inf\",\"down\":\"-inf\",\"ok\":true,\"str\":\"a\\\"b\\\\c\\n\"}}"
    (Sink.jsonl_of_event
       (Sink.Span_begin
          { id = 7; parent = 3; name = "s"; t_ns = 42;
            attrs =
              [ ("seed", Attr.Int max_int); ("low", Attr.Int min_int);
                ("x", Attr.Float 0.1); ("bad", Attr.Float nan);
                ("up", Attr.Float infinity); ("down", Attr.Float neg_infinity);
                ("ok", Attr.Bool true); ("str", Attr.Str "a\"b\\c\n") ] }))

(* A missing number reads "?" in every reader: the pinned trace's second
   routing pass has no [length], which [pp_summary] shows as [L=?]. *)
let test_progress_missing_value () =
  let st = Progress.create () in
  let lines = List.filter_map (Progress.feed st) pinned_events in
  Alcotest.(check (list string))
    "routing passes"
    [ "route pass 1: overflow 12 -> 6 (length 3000)";
      "route pass 2: overflow 6 -> 9 (length ?)" ]
    (List.filter (String.starts_with ~prefix:"route pass") lines);
  checkb "stage-1 temperature without cost" true
    (List.mem "stage1[r1] T=100 accept=55.0% cost=?" lines)

let () =
  Alcotest.run "health"
    [ ( "report",
        [ Alcotest.test_case "empty trace" `Quick test_report_empty_trace;
          Alcotest.test_case "meta-only trace" `Quick test_report_meta_only;
          Alcotest.test_case "malformed line numbered" `Quick
            test_report_malformed_line_number;
          Alcotest.test_case "non-object line" `Quick
            test_report_non_object_line;
          Alcotest.test_case "validate cites line" `Quick
            test_validate_names_line;
          Alcotest.test_case "v1 compat" `Quick test_v1_trace_still_valid ] );
      ( "metrics",
        [ Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "export pinned" `Quick
            test_metrics_export_pinned ] );
      ( "flight",
        [ Alcotest.test_case "ring basics" `Quick test_flight_ring;
          Alcotest.test_case "wrap-around" `Quick test_flight_wraparound;
          Alcotest.test_case "dump validates" `Quick
            test_flight_dump_validates;
          Alcotest.test_case "abort leaves dump naming site" `Quick
            test_abort_leaves_flight_dump;
          Alcotest.test_case "clean run leaves no dump" `Quick
            test_clean_run_no_dump ] );
      ( "bench",
        [ Alcotest.test_case "compare" `Quick test_compare_benches;
          Alcotest.test_case "load" `Quick test_load_bench ] );
      ( "progress",
        [ Alcotest.test_case "fold" `Quick test_progress_fold;
          Alcotest.test_case "missing value shows ?" `Quick
            test_progress_missing_value ] );
      ( "health",
        [ Alcotest.test_case "golden values" `Quick test_health_golden;
          Alcotest.test_case "deterministic" `Quick test_health_deterministic;
          Alcotest.test_case "anneal contract pinned" `Quick
            test_anneal_contract_pinned;
          Alcotest.test_case "empty + profile" `Quick test_health_empty;
          Alcotest.test_case "rendered text pinned" `Quick
            test_rendered_text_pinned ] ) ]
