(* Observability subsystem tests.

   The two contracts under test, beyond unit behavior:

   - results are BIT-IDENTICAL with observability on or off, at any
     --jobs (instrumentation only reads algorithm state);
   - the disabled path allocates nothing (one branch per site), verified
     through the minor-heap allocation counter. *)

module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr
module Sink = Twmc_obs.Sink
module Metrics = Twmc_obs.Metrics
module Report = Twmc_obs.Report
module Placement = Twmc_place.Placement
module Stage1 = Twmc_place.Stage1
module Synth = Twmc_workload.Synth

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let test_jobs =
  match Sys.getenv_opt "TWMC_TEST_JOBS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

(* ------------------------------------------------------------ metrics *)

(* The fold's rules and layout on a hand-built trace: counters sum, gauges
   keep the last value, the stage-1 series follow the winning replica of
   the last stage-1 attempt, a rolled-back refinement adds no stage-2
   acceptance, and a finished flow declares its empty series. *)
let test_metrics_json () =
  let ev kind name attrs =
    { Report.v = Sink.schema_version; ev = kind; id = 0; parent = 0; name;
      t_ns = 0; line = 0;
      attrs = List.map (fun (k, x) -> (k, Report.Num x)) attrs }
  in
  let temp replica t a =
    ev "point" "stage1.temp"
      [ ("replica", replica); ("t", t); ("acceptance", a); ("cost", 10.0 *. t);
        ("c1", t); ("c2", 0.0); ("c3", 1.0) ]
  in
  let events =
    [ ev "span_begin" "stage1" [];
      temp 0.0 10.0 0.9;
      ev "point" "stage1.winner" [ ("index", 0.0) ];
      ev "span_end" "stage1" [];
      ev "span_begin" "stage1" [];
      temp 0.0 20.0 0.5;
      temp 1.0 30.0 0.7;
      ev "point" "stage1.replica" [ ("replica", 0.0); ("cost", 5.0) ];
      ev "point" "stage1.replica" [ ("replica", 1.0); ("cost", 4.0) ];
      ev "point" "stage1.winner" [ ("index", 1.0) ];
      ev "span_end" "stage1" [];
      ev "point" "stage2.temp" [ ("iteration", 1.0); ("acceptance", 0.25) ];
      ev "point" "route.net" [ ("alternatives", 3.0) ];
      ev "point" "route.net" [ ("alternatives", 0.0) ];
      ev "point" "route.assign"
        [ ("nets", 1.0); ("unroutable", 1.0); ("attempts", 7.0) ];
      ev "point" "route.iteration" [ ("overflow", 2.0); ("teil", 100.0) ];
      ev "point" "stage2.temp" [ ("iteration", 2.0); ("acceptance", 0.125) ];
      ev "point" "stage2.rollback" [ ("iteration", 2.0) ];
      ev "point" "flow.result"
        [ ("teil", 100.0); ("area", 50.0); ("elapsed_s", 0.5) ];
      ev "point" "flow.status" [ ("retries", 1.0); ("diagnostics", 2.0) ];
      ev "point" "flow.status" [ ("retries", 0.0); ("diagnostics", 3.0) ] ]
  in
  checks "fold"
    "{\"counters\":{\"flow.retries\":1,\"route.assign_attempts\":7,\
     \"route.nets_routed\":1,\"route.nets_unroutable\":1,\"route.passes\":1,\
     \"route.routes_enumerated\":3,\"stage2.refinements\":1,\
     \"stage2.rollbacks\":1},\
     \"gauges\":{\"flow.area_final\":50,\"flow.diagnostics\":3,\
     \"flow.elapsed_s\":0.5,\"flow.teil_final\":100},\
     \"histograms\":{\"route.alternatives_per_net\":{\"count\":2,\"sum\":3,\
     \"buckets\":[{\"le\":1.0000000000000001e-09,\"n\":1},\
     {\"le\":4.6415888336127722,\"n\":1}]}},\
     \"series\":{\"pool.utilization\":[],\"route.overflow\":[2],\
     \"stage1.acceptance\":[0.69999999999999996],\"stage1.c1\":[30],\
     \"stage1.c2\":[0],\"stage1.c3\":[1],\"stage1.cost\":[300],\
     \"stage1.replica_cost\":[5,4],\"stage1.temperature\":[30],\
     \"stage2.acceptance\":[0.25],\"stage2.teil\":[100]}}"
    (Twmc_obs.Json.to_string (Metrics.of_events events))

(* ------------------------------------------------------------- tracer *)

let test_tracer_nesting () =
  let sink = Sink.memory () in
  let t = Obs.create sink in
  let v =
    Obs.span t ~name:"outer" (fun () ->
        Obs.span t ~name:"inner" (fun () ->
            Obs.point t ~name:"p" ~attrs:[ ("k", Attr.Int 1) ] ());
        9)
  in
  check "span returns thunk value" 9 v;
  match Sink.memory_events sink with
  | [ Sink.Span_begin { id = outer_id; parent = outer_parent; _ };
      Sink.Span_begin { id = inner_id; parent = inner_parent; _ };
      Sink.Point _; Sink.Span_end { id = inner_end; _ };
      Sink.Span_end { id = outer_end; name = outer_name; _ } ] ->
      check "outer has no parent" 0 outer_parent;
      check "inner nests under outer" outer_id inner_parent;
      check "inner closes first" inner_id inner_end;
      check "outer closes last" outer_id outer_end;
      checks "names match" "outer" outer_name
  | evs -> Alcotest.failf "unexpected event shape (%d events)" (List.length evs)

exception Kaboom

let test_tracer_exception () =
  let sink = Sink.memory () in
  let t = Obs.create sink in
  (try Obs.span t ~name:"s" (fun () -> raise Kaboom)
   with Kaboom -> ());
  match Sink.memory_events sink with
  | [ Sink.Span_begin _; Sink.Span_end { attrs; _ } ] ->
      checkb "error attr" true (List.mem ("error", Attr.Bool true) attrs)
  | _ -> Alcotest.fail "span must close even on exceptions"

let test_jsonl_round_trip () =
  let line =
    Sink.jsonl_of_event
      (Sink.Span_begin
         { id = 3; parent = 1; name = "a \"b\""; t_ns = 12;
           attrs = [ ("x", Attr.Float 1.5); ("y", Attr.Str "z") ] })
  in
  match Report.parse_json line with
  | Report.Obj kvs ->
      checkb "version stamped" true
        (List.assoc "v" kvs = Report.Num (float_of_int Sink.schema_version));
      checkb "name round-trips" true
        (List.assoc "name" kvs = Report.Str "a \"b\"")
  | _ -> Alcotest.fail "jsonl_of_event must emit one JSON object"

(* ---------------------------------------------- disabled-path overhead *)

(* The disabled context may not allocate: drive many span+point sites —
   plus the disabled flight recorder and the per-move class counters that
   share the hot path — and bound the minor-heap growth by a constant (the
   [Gc.minor_words] calls themselves box a float or two — far below one
   word per iteration). *)
let test_disabled_no_alloc () =
  let obs = Obs.disabled in
  let stats = Twmc_place.Moves.make_stats () in
  let cls = 0 (* = "displace", see {!Moves.class_name} *) in
  let body () =
    Obs.point obs ~name:"p" ();
    (* Exactly the counter pattern [Moves] runs per attempted move:
       int bumps plus a float-array store (unboxed, so no boxing). *)
    stats.Twmc_place.Moves.class_attempts.(cls) <-
      stats.Twmc_place.Moves.class_attempts.(cls) + 1;
    stats.Twmc_place.Moves.class_accepts.(cls) <-
      stats.Twmc_place.Moves.class_accepts.(cls) + 1;
    stats.Twmc_place.Moves.class_dcost.(cls) <-
      stats.Twmc_place.Moves.class_dcost.(cls) +. 1.5;
    Twmc_obs.Flight_recorder.note "x"
  in
  let iters = 10_000 in
  Twmc_obs.Flight_recorder.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Twmc_obs.Flight_recorder.set_enabled true)
    (fun () ->
      (* Warm up so any one-time allocation is out of the measured window. *)
      Obs.span obs ~name:"s" body;
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do
        Obs.span obs ~name:"s" body
      done;
      let w1 = Gc.minor_words () in
      checkb
        (Printf.sprintf "disabled path allocates (%.0f words / %d iters)"
           (w1 -. w0) iters)
        true
        (w1 -. w0 < 64.0))

(* ----------------------------------------------- bit-identity contract *)

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

let placement_bytes p =
  let nl = Placement.netlist p in
  let b = Buffer.create 256 in
  for ci = 0 to Twmc_netlist.Netlist.n_cells nl - 1 do
    let x, y = Placement.cell_pos p ci in
    Buffer.add_string b
      (Printf.sprintf "%d:%d,%d,%s,%d;" ci x y
         (Twmc_geometry.Orient.to_string (Placement.cell_orient p ci))
         (Placement.cell_variant p ci))
  done;
  Buffer.contents b

let route_bytes (r : Twmc_route.Global_router.result) =
  let b = Buffer.create 256 in
  List.iter
    (fun (rn : Twmc_route.Global_router.routed_net) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%s;" rn.Twmc_route.Global_router.net
           (String.concat ","
              (List.map string_of_int
                 rn.Twmc_route.Global_router.route.Twmc_route.Steiner.edges))))
    r.Twmc_route.Global_router.routed;
  Buffer.add_string b
    (Printf.sprintf "|L=%d X=%d X0=%d"
       r.Twmc_route.Global_router.total_length
       r.Twmc_route.Global_router.overflow
       r.Twmc_route.Global_router.initial_overflow);
  Buffer.contents b

let flow_bytes (r : Twmc.Flow.result) =
  placement_bytes r.Twmc.Flow.stage2.Twmc.Stage2.placement
  ^
  match r.Twmc.Flow.stage2.Twmc.Stage2.final_route with
  | None -> "|noroute"
  | Some route -> "|" ^ route_bytes route

let enabled_obs () = Obs.create (Sink.memory ())

(* The metrics document of a run recorded into a memory sink. *)
let metrics_of sink =
  Metrics.of_events (List.map Report.of_sink_event (Sink.memory_events sink))

let flow ~jobs ~obs () =
  Twmc.Flow.run ~params:quick_params ~seed:3 ~jobs ~replicas:2 ~obs
    (Lazy.force small_nl)

let test_bit_identity () =
  let baseline = flow_bytes (flow ~jobs:1 ~obs:Obs.disabled ()) in
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "tracing off, jobs=%d" jobs)
        baseline
        (flow_bytes (flow ~jobs ~obs:Obs.disabled ()));
      checks
        (Printf.sprintf "tracing on, jobs=%d" jobs)
        baseline
        (flow_bytes (flow ~jobs ~obs:(enabled_obs ()) ())))
    [ 1; test_jobs ]

(* Counters/series/histograms must also be jobs-invariant (counter adds
   commute; series are sampled sequentially from returned traces).  Only
   the pool.* instruments and wall-clock gauges may differ. *)
let test_metrics_jobs_invariant () =
  let deterministic_sections sink =
    match Report.parse_json (Twmc_obs.Json.to_string (metrics_of sink)) with
    | Report.Obj sections ->
        List.filter_map
          (fun (sec, v) ->
            if sec = "gauges" then None
            else
              match v with
              | Report.Obj kvs ->
                  Some
                    ( sec,
                      List.filter
                        (fun (k, _) ->
                          not (String.length k >= 5 && String.sub k 0 5 = "pool."))
                        kvs )
              | _ -> None)
          sections
    | _ -> Alcotest.fail "metrics JSON must be an object"
  in
  let s1 = Sink.memory () and sN = Sink.memory () in
  ignore (flow ~jobs:1 ~obs:(Obs.create s1) ());
  ignore (flow ~jobs:test_jobs ~obs:(Obs.create sN) ());
  checkb "identical non-pool metrics" true
    (deterministic_sections s1 = deterministic_sections sN)

(* The fold on the real path through a retry and a rollback: one injected
   stage-1 failure and one failed refinement.  The series follow the
   returned stage traces (winning replica of the retried attempt, kept
   refinements only) and the counters the driver's own tallies. *)
let test_metrics_retry_rollback () =
  let module Fault = Twmc_util.Fault in
  let sink = Sink.memory () in
  Fault.arm
    [ { Fault.site = "stage1.replica"; nth = 1; kind = Fault.Exn };
      { Fault.site = "stage2.refine"; nth = 1; kind = Fault.Exn } ];
  let rr =
    Fun.protect ~finally:Fault.disarm (fun () ->
        Twmc.Flow.run_resilient
          ~params:
            { quick_params with Twmc_place.Params.refinement_iterations = 2 }
          ~seed:3 ~replicas:2 ~obs:(Obs.create sink) (Lazy.force small_nl))
  in
  let r = Option.get rr.Twmc.Flow.flow in
  let section name =
    match metrics_of sink with
    | Report.Obj sections -> (
        match List.assoc name sections with
        | Report.Obj kvs -> kvs
        | _ -> Alcotest.failf "%s not an object" name)
    | _ -> Alcotest.fail "metrics not an object"
  in
  let counter k =
    match List.assoc_opt k (section "counters") with
    | Some (Twmc_obs.Json.Int n) -> n
    | _ -> Alcotest.failf "counter %s missing" k
  in
  let series k =
    match List.assoc_opt k (section "series") with
    | Some (Twmc_obs.Json.List xs) ->
        List.map (function Twmc_obs.Json.Num x -> x | _ -> nan) xs
    | _ -> Alcotest.failf "series %s missing" k
  in
  let acceptance =
    List.map (fun (t : Stage1.temp_record) -> t.Stage1.acceptance)
  in
  check "one retry" 1 rr.Twmc.Flow.retries_used;
  check "retries" 1 (counter "flow.retries");
  check "rollbacks" 1 (counter "stage2.rollbacks");
  check "refinements kept"
    (List.length r.Twmc.Flow.stage2.Twmc.Stage2.iterations)
    (counter "stage2.refinements");
  Alcotest.(check (list (float 0.0)))
    "stage-1 acceptance of the winner"
    (acceptance r.Twmc.Flow.stage1.Stage1.trace)
    (series "stage1.acceptance");
  checkb "a refinement was kept" true
    (r.Twmc.Flow.stage2.Twmc.Stage2.trace <> []);
  Alcotest.(check (list (float 0.0)))
    "stage-2 acceptance of kept refinements"
    (acceptance r.Twmc.Flow.stage2.Twmc.Stage2.trace)
    (series "stage2.acceptance")

(* ------------------------------------------------------ trace integrity *)

let with_temp_trace f =
  let path = Filename.temp_file "twmc_obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_trace_file_valid () =
  with_temp_trace (fun path ->
      let sink = Sink.to_file path in
      let obs = Obs.create sink in
      ignore (flow ~jobs:test_jobs ~obs ());
      Sink.close sink;
      let events = Report.load path in
      Alcotest.(check (list string)) "valid trace" [] (Report.validate events);
      checkb "has flow span" true
        (List.exists
           (fun (e : Report.event) ->
             e.Report.ev = "span_begin" && e.Report.name = "flow")
           events);
      checkb "has stage1 temp points" true
        (List.exists
           (fun (e : Report.event) ->
             e.Report.ev = "point" && e.Report.name = "stage1.temp")
           events);
      checkb "has route.assign points" true
        (List.exists
           (fun (e : Report.event) ->
             e.Report.ev = "point" && e.Report.name = "route.assign")
           events);
      (* The summary renderer accepts a real trace. *)
      let b = Buffer.create 512 in
      Format.fprintf (Format.formatter_of_buffer b) "%a@?" Report.pp_summary
        events;
      checkb "summary non-empty" true (Buffer.length b > 0))

(* Every routing pass splits into its two phases: each [route] span has
   exactly one [route.phase1] child (the per-net enumeration, pool fan-out
   and join included) and one [route.phase2] child (the assignment). *)
let test_route_phases () =
  let sink = Sink.memory () in
  ignore (flow ~jobs:test_jobs ~obs:(Obs.create sink) ());
  let begins =
    List.filter_map
      (function
        | Sink.Span_begin { id; parent; name; _ } -> Some (id, parent, name)
        | _ -> None)
      (Sink.memory_events sink)
  in
  let routes = List.filter (fun (_, _, name) -> name = "route") begins in
  checkb "routing passes traced" true (routes <> []);
  List.iter
    (fun (id, _, _) ->
      let children kind =
        List.length
          (List.filter (fun (_, parent, name) -> parent = id && name = kind) begins)
      in
      check "one route.phase1 child" 1 (children "route.phase1");
      check "one route.phase2 child" 1 (children "route.phase2"))
    routes;
  check "no phase span outside a route span" (2 * List.length routes)
    (List.length
       (List.filter
          (fun (_, _, name) -> name = "route.phase1" || name = "route.phase2")
          begins))

(* Every refinement has its anneal's span: each [stage2.refine] span has
   exactly one [stage2.anneal] child, and there is none elsewhere. *)
let test_stage2_anneal_span () =
  let sink = Sink.memory () in
  ignore (flow ~jobs:test_jobs ~obs:(Obs.create sink) ());
  let begins =
    List.filter_map
      (function
        | Sink.Span_begin { id; parent; name; _ } -> Some (id, parent, name)
        | _ -> None)
      (Sink.memory_events sink)
  in
  let refines =
    List.filter (fun (_, _, name) -> name = "stage2.refine") begins
  in
  checkb "refinements traced" true (refines <> []);
  List.iter
    (fun (id, _, _) ->
      check "one stage2.anneal child" 1
        (List.length
           (List.filter
              (fun (_, parent, name) -> parent = id && name = "stage2.anneal")
              begins)))
    refines;
  check "no stage2.anneal span outside a refinement" (List.length refines)
    (List.length
       (List.filter (fun (_, _, name) -> name = "stage2.anneal") begins))

(* The quench tail has its own span: in a flow that nothing interrupts,
   each [stage1.anneal] and [stage2.anneal] span has exactly one quench
   child of its stage, carrying its replica or iteration attribute, and
   there is no quench span elsewhere. *)
let test_quench_span () =
  let sink = Sink.memory () in
  ignore (flow ~jobs:test_jobs ~obs:(Obs.create sink) ());
  let begins =
    List.filter_map
      (function
        | Sink.Span_begin { id; parent; name; attrs; _ } ->
            Some (id, parent, name, attrs)
        | _ -> None)
      (Sink.memory_events sink)
  in
  let named n = List.filter (fun (_, _, name, _) -> name = n) begins in
  let index attrs =
    List.filter (fun (k, _) -> k = "replica" || k = "iteration") attrs
  in
  List.iter
    (fun stage ->
      let anneal = stage ^ ".anneal" and quench = stage ^ ".quench" in
      let anneals = named anneal in
      checkb (anneal ^ " spans traced") true (anneals <> []);
      List.iter
        (fun (id, _, _, attrs) ->
          match
            List.filter (fun (_, parent, _, _) -> parent = id) (named quench)
          with
          | [ (_, _, _, q) ] ->
              checkb (quench ^ " carries the anneal's index") true
                (index q = index attrs)
          | l ->
              Alcotest.failf "%s span %d has %d %s children" anneal id
                (List.length l) quench)
        anneals;
      check ("no " ^ quench ^ " span outside an anneal") (List.length anneals)
        (List.length (named quench)))
    [ "stage1"; "stage2" ]

(* [--metrics] folds a memory sink's events when no trace file is written
   and reads the file back when one is: both must give the same document.
   The extra point carries an infinite float, which the file holds as the
   string "inf". *)
let test_metrics_memory_file () =
  let sink = Sink.memory () in
  let obs = Obs.create sink in
  ignore (flow ~jobs:1 ~obs ());
  Obs.point obs ~name:"flow.result"
    ~attrs:[ ("teil", Attr.Float infinity); ("area", Attr.Int 1) ]
    ();
  let events = Sink.memory_events sink in
  with_temp_trace (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Sink.meta_jsonl ~name:"twmc-trace" ~t_ns:0 []);
          List.iter
            (fun e -> output_string oc ("\n" ^ Sink.jsonl_of_event e))
            events);
      let text evs = Twmc_obs.Json.to_string (Metrics.of_events evs) in
      checks "same document"
        (text (Report.load path))
        (text (List.map Report.of_sink_event events)))

(* Domains stamping into one file sink: the timestamp is read under the
   sink's lock, so the file never goes back in time. *)
let test_concurrent_points_ordered () =
  with_temp_trace (fun path ->
      let sink = Sink.to_file path in
      let obs = Obs.create sink in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to 5_000 do
                  Obs.point obs ~name:"p"
                    ~attrs:[ ("domain", Attr.Int d); ("i", Attr.Int i) ]
                    ()
                done))
      in
      List.iter Domain.join domains;
      Sink.close sink;
      let events = Report.load path in
      check "meta line and every point" 20_001 (List.length events);
      match Report.validate events with
      | [] -> ()
      | first :: _ as problems ->
          Alcotest.failf "%d problems, first: %s" (List.length problems) first)

let test_validate_rejects () =
  let meta =
    { Report.v = Sink.schema_version; ev = "meta"; id = 0; parent = 0;
      name = "twmc-trace"; t_ns = 0; attrs = []; line = 0 }
  in
  let ev ?(v = Sink.schema_version) ?(id = 0) ?(parent = 0) ?(t_ns = 1) kind
      name =
    { Report.v; ev = kind; id; parent; name; t_ns; attrs = []; line = 0 }
  in
  checkb "unclosed span" true
    (Report.validate [ meta; ev "span_begin" ~id:1 "s" ] <> []);
  checkb "mismatched end name" true
    (Report.validate
       [ meta; ev "span_begin" ~id:1 "a"; ev "span_end" ~id:1 ~t_ns:2 "b" ]
    <> []);
  checkb "decreasing timestamps" true
    (Report.validate
       [ meta; ev "span_begin" ~id:1 ~t_ns:5 "s";
         ev "span_end" ~id:1 ~t_ns:4 "s" ]
    <> []);
  checkb "missing meta" true (Report.validate [ ev "point" "p" ] <> []);
  Alcotest.(check (list string))
    "balanced trace valid" []
    (Report.validate
       [ meta; ev "span_begin" ~id:1 "s"; ev "point" ~t_ns:2 "p";
         ev "span_end" ~id:1 ~t_ns:3 "s" ])

(* ------------------------------------------------------- stage-2 trace *)

let test_stage2_trace () =
  let r = flow ~jobs:1 ~obs:Obs.disabled () in
  let trace = r.Twmc.Flow.stage2.Twmc.Stage2.trace in
  checkb "stage-2 trace non-empty" true (trace <> []);
  List.iter
    (fun (t : Stage1.temp_record) ->
      checkb "acceptance in [0,1]" true
        (t.Stage1.acceptance >= 0.0 && t.Stage1.acceptance <= 1.0);
      checkb "temperature positive" true (t.Stage1.temperature > 0.0))
    trace

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "json export" `Quick test_metrics_json;
          Alcotest.test_case "memory and file fold alike" `Quick
            test_metrics_memory_file;
          Alcotest.test_case "fold through retry and rollback" `Quick
            test_metrics_retry_rollback ] );
      ( "tracer",
        [ Alcotest.test_case "span nesting" `Quick test_tracer_nesting;
          Alcotest.test_case "exception closes span" `Quick
            test_tracer_exception;
          Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip ] );
      ( "overhead",
        [ Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_no_alloc ] );
      ( "determinism",
        [ Alcotest.test_case "bit identity on/off x jobs" `Quick
            test_bit_identity;
          Alcotest.test_case "metrics jobs-invariant" `Quick
            test_metrics_jobs_invariant ] );
      ( "trace",
        [ Alcotest.test_case "traced flow validates" `Quick
            test_trace_file_valid;
          Alcotest.test_case "route spans split into phases" `Quick
            test_route_phases;
          Alcotest.test_case "refinements have an anneal span" `Quick
            test_stage2_anneal_span;
          Alcotest.test_case "anneals have a quench span" `Quick
            test_quench_span;
          Alcotest.test_case "concurrent points stay ordered" `Quick
            test_concurrent_points_ordered;
          Alcotest.test_case "validate rejects malformed" `Quick
            test_validate_rejects;
          Alcotest.test_case "stage-2 trace exposed" `Quick test_stage2_trace ]
      ) ]
