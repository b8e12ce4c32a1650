(* Fault injection, crash-durable checkpoints and resume.

   Every test disarms the injector on exit (the fault state is global);
   plans here are tiny and deterministic, so failures replay exactly. *)

module Fault = Twmc_util.Fault
module Atomic_io = Twmc_util.Atomic_io
module Guard = Twmc.Robust.Guard
module Checkpoint = Twmc.Robust.Checkpoint
module Diagnostic = Twmc.Robust.Diagnostic
module Flow = Twmc.Flow
module Rng = Twmc_sa.Rng
module Params = Twmc_place.Params

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let with_plan plan f =
  Fault.arm plan;
  Fun.protect ~finally:(fun () -> Fault.disarm ()) f

let netlist ?(seed = 41) () =
  Twmc_workload.Synth.generate ~seed
    { Twmc_workload.Synth.default_spec with
      Twmc_workload.Synth.n_cells = 8;
      n_nets = 20;
      n_pins = 70;
      frac_custom = 0.25 }

let params = { Params.default with Params.a_c = 2; m_routes = 6 }

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "twmc-test-fault-%d-%s-%d" (Unix.getpid ()) tag !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let codes diags = List.map (fun d -> d.Diagnostic.code) diags
let has_code c diags = List.mem c (codes diags)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------ injector core *)

let test_nth_and_fired () =
  with_plan [ { Fault.site = "a.x"; nth = 2; kind = Fault.Exn } ] (fun () ->
      Fault.point "a.x";
      (* first hit: below nth, no fault *)
      (match Fault.point "a.x" with
      | () -> Alcotest.fail "second hit should have raised"
      | exception Fault.Injected { site; kind } ->
          checks "site" "a.x" site;
          checkb "kind" true (kind = Fault.Exn));
      (* the rule fired once; further hits are clean *)
      Fault.point "a.x";
      check "fired log" 1 (List.length (Fault.fired ())));
  checkb "disarmed" false (Fault.armed ());
  (* disarmed entry points are no-ops *)
  Fault.point "a.x"

let test_wildcard_pattern () =
  with_plan [ { Fault.site = "stage1.*"; nth = 1; kind = Fault.Exn } ] (fun () ->
      Fault.point "router.net";
      (* non-matching site must not consume the rule *)
      match Fault.point "stage1.replica" with
      | () -> Alcotest.fail "wildcard should have matched"
      | exception Fault.Injected { site; _ } -> checks "site" "stage1.replica" site)

let test_deadline_latch () =
  with_plan [ { Fault.site = "g"; nth = 1; kind = Fault.Deadline } ] (fun () ->
      checkb "not pending before" false (Fault.deadline_pending ());
      Fault.point "g";
      checkb "pending after" true (Fault.deadline_pending ());
      (* every guard now reports expired, without any wall clock *)
      let g = Guard.create () in
      checkb "guard expired" true (Guard.expired g);
      (* Guard.stage refuses to start a stage under an expired guard *)
      let ran = ref false in
      (match Guard.stage g ~name:"x" (fun () -> ran := true) with
      | Guard.Ok _ -> Alcotest.fail "stage should not run"
      | Guard.Failed d -> checks "code" "G401" d.Diagnostic.code);
      checkb "thunk not run" false !ran);
  checkb "latch cleared by disarm" false (Fault.deadline_pending ())

let test_plan_serialization () =
  let plan =
    [ { Fault.site = "io.write"; nth = 3; kind = Fault.Torn_write };
      { Fault.site = "stage2.*"; nth = 1; kind = Fault.Deadline } ]
  in
  match Fault.plan_of_string (Fault.plan_to_string plan) with
  | Ok p -> checkb "round-trip" true (p = plan)
  | Error m -> Alcotest.fail m

(* ------------------------------------------------- atomic_io under io faults *)

let test_short_write_detected () =
  let path = Filename.temp_file "twmc-short" ".dat" in
  Atomic_io.write_string path "old-content";
  with_plan [ { Fault.site = "io.write"; nth = 1; kind = Fault.Short_write } ]
    (fun () ->
      match Atomic_io.write_string path "this-is-the-new-content" with
      | () -> Alcotest.fail "short write should have been detected"
      | exception Sys_error m ->
          checkb "mentions short write" true (contains ~sub:"short write" m));
  checks "destination untouched" "old-content" (Atomic_io.read_string path);
  Sys.remove path

let test_mkdir_p () =
  let root = fresh_dir "mkdir" in
  let parent = Filename.concat root "a" in
  let nested = Filename.concat parent "b" in
  Atomic_io.mkdir_p nested;
  checkb "nested dirs created" true (Sys.is_directory nested);
  (* Existing directories are not an error. *)
  Atomic_io.mkdir_p nested;
  Atomic_io.mkdir_p root;
  let file = Filename.concat root "f" in
  Atomic_io.write_string file "x";
  let raises d =
    match Atomic_io.mkdir_p d with () -> false | exception Sys_error _ -> true
  in
  checkb "file in the way raises" true (raises file);
  checkb "file in the way of a parent raises" true
    (raises (Filename.concat file "sub"));
  Sys.rmdir nested;
  Sys.rmdir parent;
  rm_rf root

(* Property: whatever single io fault hits the writer, the destination holds
   either the complete old contents or the complete new ones — never a
   prefix — and the writer works again afterwards. *)
let atomic_io_crash_consistency =
  QCheck.Test.make ~count:60 ~name:"atomic_io crash consistency"
    QCheck.(
      triple (string_of_size (Gen.int_range 0 2000))
        (string_of_size (Gen.int_range 1 2000))
        (int_range 0 2))
    (fun (old_c, new_c, k) ->
      let kind =
        [| Fault.Torn_write; Fault.Short_write; Fault.Io_error |].(k)
      in
      let path = Filename.temp_file "twmc-crash" ".dat" in
      Atomic_io.write_string path old_c;
      with_plan [ { Fault.site = "io.write"; nth = 1; kind } ] (fun () ->
          match Atomic_io.write_string path new_c with
          | () -> ()
          | exception (Sys_error _ | Fault.Injected _) -> ());
      let on_disk = Atomic_io.read_string path in
      let intact = on_disk = old_c || on_disk = new_c in
      (* recovery: the next (unfaulted) write must land in full *)
      Atomic_io.write_string path new_c;
      let recovered = Atomic_io.read_string path = new_c in
      (* torn writes may leave a temp file, as a killed process would;
         clean it up so the property is self-contained *)
      let dir = Filename.dirname path and base = Filename.basename path in
      Array.iter
        (fun f ->
          if f <> base && String.length f >= String.length base
             && String.sub f 0 (String.length base) = base then
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Sys.remove path;
      intact && recovered)

(* ------------------------------------------------------- rng cursor *)

let test_rng_cursor_roundtrip () =
  let rng = Rng.create ~seed:42 in
  for _ = 1 to 17 do ignore (Rng.int_incl rng 0 1000) done;
  let cursor = Rng.to_binary_string rng in
  let xs = List.init 50 (fun _ -> Rng.int_incl rng 0 1_000_000) in
  match Rng.of_binary_string cursor with
  | None -> Alcotest.fail "cursor did not deserialize"
  | Some rng' ->
      let ys = List.init 50 (fun _ -> Rng.int_incl rng' 0 1_000_000) in
      checkb "replayed stream identical" true (xs = ys);
      checkb "garbage rejected" true (Rng.of_binary_string "garbage" = None)

(* ------------------------------------------- durable checkpoint format *)

(* A checkpoint directory that cannot be created costs the checkpoints, not
   the flow: the first write reports it as a G410 warning. *)
let test_uncreatable_checkpoint_dir () =
  let root = fresh_dir "blocked" in
  let file = Filename.concat root "f" in
  Atomic_io.write_string file "x";
  let cfg = { Flow.dir = Filename.concat file "ckpt"; every = 1 } in
  let rr = Flow.run_resilient ~params ~seed:9 ~checkpoint:cfg (netlist ()) in
  checkb "flow completed" true (rr.Flow.flow <> None);
  checkb "G410 warning" true (has_code "G410" rr.Flow.diagnostics);
  rm_rf root

(* The circuit name is a token of the input file: one that climbs out of
   the checkpoint directory is still written, and resumed from, inside it. *)
let test_checkpoint_name_confined () =
  let base = netlist () in
  let nl =
    Twmc_netlist.Netlist.make ~name:"../escaped"
      ~track_spacing:base.Twmc_netlist.Netlist.track_spacing
      ~constraints:(Array.to_list base.Twmc_netlist.Netlist.constraints)
      ~cells:(Array.to_list base.Twmc_netlist.Netlist.cells)
      ~nets:(Array.to_list base.Twmc_netlist.Netlist.nets)
      ()
  in
  let root = fresh_dir "confined" in
  let dir = Filename.concat root "ckpt" in
  let cfg = { Flow.dir; every = 1 } in
  let rr = Flow.run_resilient ~params ~seed:9 ~checkpoint:cfg nl in
  checkb "flow completed" true (rr.Flow.flow <> None);
  let path = Flow.checkpoint_path cfg nl in
  checks "checkpoint directory" dir (Filename.dirname path);
  Alcotest.(check (list string))
    "dir holds the checkpoint" [ Filename.basename path ]
    (Array.to_list (Sys.readdir dir));
  Alcotest.(check (list string))
    "nothing written beside dir" [ "ckpt" ]
    (Array.to_list (Sys.readdir root));
  let rr' = Flow.resume ~params ~path nl in
  checkb "resumed" true (has_code "G413" rr'.Flow.diagnostics);
  rm_rf dir;
  rm_rf root

let durable_fixture nl =
  let rng = Rng.create ~seed:5 in
  let s1 = Twmc_place.Stage1.run ~params ~rng nl in
  Checkpoint.durable ~stage:(Checkpoint.Stage2_iteration 2) ~seed_used:5
    ~rng_cursor:(Rng.to_binary_string rng)
    ~s1:
      { Checkpoint.s1_teil = s1.Twmc_place.Stage1.teil;
        s1_c1 = s1.Twmc_place.Stage1.c1;
        s1_residual_overlap = s1.Twmc_place.Stage1.residual_overlap;
        s1_chip = s1.Twmc_place.Stage1.chip;
        s1_core = s1.Twmc_place.Stage1.core;
        s1_t_inf = s1.Twmc_place.Stage1.t_inf;
        s1_s_t = s1.Twmc_place.Stage1.s_t;
        s1_temperatures = s1.Twmc_place.Stage1.temperatures_visited }
    s1.Twmc_place.Stage1.placement

let test_checkpoint_roundtrip () =
  let nl = netlist () in
  let d = durable_fixture nl in
  let dir = fresh_dir "ckpt" in
  let path = Filename.concat dir "a.ckpt" in
  Checkpoint.save ~path ~netlist:nl ~params d;
  (match Checkpoint.load ~path ~netlist:nl ~params with
  | Error m -> Alcotest.fail m
  | Ok d' ->
      checkb "stage" true (d'.Checkpoint.stage = Checkpoint.Stage2_iteration 2);
      check "seed" 5 d'.Checkpoint.seed_used;
      checks "rng cursor" d.Checkpoint.rng_cursor d'.Checkpoint.rng_cursor;
      checkb "dynamic flag survives" true
        (d'.Checkpoint.dynamic_expander = d.Checkpoint.dynamic_expander);
      Alcotest.(check (float 1e-9))
        "teil" (Checkpoint.teil d.Checkpoint.snapshot)
        (Checkpoint.teil d'.Checkpoint.snapshot));
  rm_rf dir

let test_checkpoint_validation () =
  let nl = netlist () in
  let d = durable_fixture nl in
  let dir = fresh_dir "ckptval" in
  let path = Filename.concat dir "a.ckpt" in
  Checkpoint.save ~path ~netlist:nl ~params d;
  let original = Atomic_io.read_string path in
  let expect_error tag content =
    Atomic_io.write_string path content;
    match Checkpoint.load ~path ~netlist:nl ~params with
    | Ok _ -> Alcotest.fail (tag ^ ": corrupt checkpoint accepted")
    | Error _ -> ()
  in
  (* flip a payload byte *)
  let flipped = Bytes.of_string original in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0xff));
  expect_error "bitflip" (Bytes.to_string flipped);
  (* truncate *)
  expect_error "truncated"
    (String.sub original 0 (String.length original - 7));
  (* wrong version *)
  expect_error "version" ("twmc-checkpoint v99" ^ original);
  (* netlist mismatch *)
  Atomic_io.write_string path original;
  (match Checkpoint.load ~path ~netlist:(netlist ~seed:99 ()) ~params with
  | Ok _ -> Alcotest.fail "netlist mismatch accepted"
  | Error m -> checkb "names netlist" true (contains ~sub:"netlist" m));
  (* params mismatch *)
  (match
     Checkpoint.load ~path ~netlist:nl
       ~params:{ params with Params.a_c = 77 }
   with
  | Ok _ -> Alcotest.fail "params mismatch accepted"
  | Error _ -> ());
  (* pristine file still loads *)
  (match Checkpoint.load ~path ~netlist:nl ~params with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  rm_rf dir

(* ------------------------------------------------ fault containment *)

let test_stage1_fault_retried () =
  let nl = netlist () in
  with_plan [ { Fault.site = "stage1.replica"; nth = 1; kind = Fault.Exn } ]
    (fun () ->
      let rr = Flow.run_resilient ~params ~seed:3 ~max_retries:2 nl in
      checkb "flow survived" true (rr.Flow.flow <> None);
      checkb "stage failure recorded" true (has_code "G400" rr.Flow.diagnostics);
      checkb "retry recorded" true (has_code "G403" rr.Flow.diagnostics);
      (* satellite: the retry diagnostic carries the backoff delay *)
      let g403 =
        List.find (fun d -> d.Diagnostic.code = "G403") rr.Flow.diagnostics
      in
      checkb "backoff in message" true
        (contains ~sub:"backoff" g403.Diagnostic.message);
      check "one retry" 1 rr.Flow.retries_used)

let test_stage1_exhaustion_degraded () =
  let nl = netlist () in
  with_plan [ { Fault.site = "stage1.*"; nth = 1; kind = Fault.Exn };
              { Fault.site = "stage1.*"; nth = 2; kind = Fault.Exn } ]
    (fun () ->
      let rr = Flow.run_resilient ~params ~seed:3 ~max_retries:1 nl in
      checkb "no flow" true (rr.Flow.flow = None);
      checkb "degraded" true (rr.Flow.status = Flow.Degraded);
      checkb "root cause summarized" true (has_code "G405" rr.Flow.diagnostics))

let test_deadline_fault_times_out () =
  let nl = netlist () in
  with_plan [ { Fault.site = "stage2.refine"; nth = 1; kind = Fault.Deadline } ]
    (fun () ->
      let rr = Flow.run_resilient ~params ~seed:3 nl in
      checkb "timed out" true (rr.Flow.status = Flow.Timed_out);
      checkb "diagnosed" true (rr.Flow.diagnostics <> []);
      checkb "budget diagnostic" true (has_code "G401" rr.Flow.diagnostics))

let test_router_fault_contained () =
  let nl = netlist () in
  with_plan [ { Fault.site = "router.net"; nth = 3; kind = Fault.Exn } ]
    (fun () ->
      let rr = Flow.run_resilient ~params ~seed:3 nl in
      checkb "flow survived" true (rr.Flow.flow <> None);
      checkb "terminal status" true
        (rr.Flow.status = Flow.Clean || rr.Flow.status = Flow.Degraded);
      checkb "rollback or failure recorded" true
        (rr.Flow.status = Flow.Clean
        || has_code "G402" rr.Flow.diagnostics
        || has_code "G400" rr.Flow.diagnostics))

let test_pool_fault_no_hang () =
  let nl = netlist () in
  with_plan [ { Fault.site = "pool.task"; nth = 1; kind = Fault.Exn } ]
    (fun () ->
      (* the injected exception surfaces at the parallel join inside a
         worker pool; the pool must survive and the retry succeed *)
      let rr = Flow.run_resilient ~params ~seed:3 ~jobs:2 ~replicas:2 nl in
      checkb "flow survived" true (rr.Flow.flow <> None);
      checkb "failure recorded" true (has_code "G400" rr.Flow.diagnostics))

(* [Flow.run] is the guarded driver too: a refinement that raises is
   rolled back, not propagated. *)
let test_run_rolls_back_refine_fault () =
  let nl = netlist () in
  with_plan [ { Fault.site = "stage2.refine"; nth = 1; kind = Fault.Exn } ]
    (fun () ->
      let r = Flow.run ~params ~seed:3 nl in
      check "one rollback" 1 r.Flow.stage2.Twmc.Stage2.rollbacks)

(* ----------------------------------------------------- guard satellites *)

let test_guard_expired_short_circuit () =
  let g = Guard.create ~time_budget_s:(-1.0) () in
  let ran = ref false in
  (match Guard.stage g ~name:"late" (fun () -> ran := true) with
  | Guard.Ok _ -> Alcotest.fail "expired guard ran its stage"
  | Guard.Failed d -> checks "code" "G401" d.Diagnostic.code);
  checkb "thunk skipped" false !ran

(* ------------------------------------------------------ resume equality *)

let flow_digest rr =
  match rr.Flow.flow with
  | Some r -> Twmc_qa.Fingerprint.flow r
  | None -> "none"

let abort_then_resume ~tag ~abort_at ~resume_jobs () =
  let nl = netlist () in
  let seed = 9 in
  (* golden: uninterrupted run (checkpointing on, which must not perturb) *)
  let dir_a = fresh_dir (tag ^ "-a") in
  let rr_a =
    Flow.run_resilient ~params ~seed
      ~checkpoint:{ Flow.dir = dir_a; every = 1 } nl
  in
  let golden = flow_digest rr_a in
  checkb "golden run produced a flow" true (rr_a.Flow.flow <> None);
  (* crash: Abort (simulated process death) during stage-2 refinement *)
  let dir_b = fresh_dir (tag ^ "-b") in
  with_plan [ { Fault.site = "stage2.refine"; nth = abort_at; kind = Fault.Abort } ]
    (fun () ->
      match
        Flow.run_resilient ~params ~seed
          ~checkpoint:{ Flow.dir = dir_b; every = 1 } nl
      with
      | _ -> Alcotest.fail "Abort must not be contained"
      | exception Fault.Abort _ -> ());
  (* the checkpoint written before the crash must exist and be loadable *)
  let path = Flow.checkpoint_path { Flow.dir = dir_b; every = 1 } nl in
  checkb "checkpoint survives the crash" true (Sys.file_exists path);
  (* resume: must converge to the identical digest *)
  let rr_c = Flow.resume ~params ~jobs:resume_jobs ~path nl in
  checkb "resumed" true (has_code "G413" rr_c.Flow.diagnostics);
  checks "byte-identical digest" golden (flow_digest rr_c);
  checkb "same status" true (rr_c.Flow.status = rr_a.Flow.status);
  rm_rf dir_a;
  rm_rf dir_b

let test_kill_resume_stage1_boundary () =
  (* abort in the FIRST refinement: resume re-enters from the stage-1
     checkpoint and replays all of stage 2 *)
  abort_then_resume ~tag:"kr1" ~abort_at:1 ~resume_jobs:1 ()

let test_kill_resume_mid_stage2 () =
  abort_then_resume ~tag:"kr2" ~abort_at:2 ~resume_jobs:1 ()

let test_kill_resume_jobs2 () =
  abort_then_resume ~tag:"kr2j" ~abort_at:2 ~resume_jobs:2 ()

let test_resume_rejects_wrong_netlist () =
  let nl = netlist () in
  let dir = fresh_dir "wrongnl" in
  let cfg = { Flow.dir; every = 1 } in
  let rr = Flow.run_resilient ~params ~seed:9 ~checkpoint:cfg nl in
  checkb "ran" true (rr.Flow.flow <> None);
  let path = Flow.checkpoint_path cfg nl in
  (* the checkpoint on disk belongs to [nl]; resuming a different circuit
     from it must be refused, not silently accepted *)
  let other = netlist ~seed:77 () in
  let rr' = Flow.resume ~params ~path other in
  checkb "invalid input" true (rr'.Flow.status = Flow.Invalid_input);
  checkb "typed diagnostic" true (has_code "G412" rr'.Flow.diagnostics);
  rm_rf dir

let test_resume_missing_file () =
  let nl = netlist () in
  let rr = Flow.resume ~params ~path:"/nonexistent/nothing.ckpt" nl in
  checkb "invalid input" true (rr.Flow.status = Flow.Invalid_input);
  checkb "typed diagnostic" true (has_code "G412" rr.Flow.diagnostics)

(* ------------------------------------------------------ chaos mini-run *)

let test_chaos_mini () =
  let r = Twmc_qa.Chaos.campaign ~seed:11 ~plans:25 () in
  check "all plans ran" 25 r.Twmc_qa.Chaos.plans_run;
  (match r.Twmc_qa.Chaos.survivors with
  | [] -> ()
  | s :: _ ->
      Alcotest.failf "chaos survivor: %s (plan %s)" s.Twmc_qa.Chaos.reason
        (Fault.plan_to_string s.Twmc_qa.Chaos.plan));
  checkb "faults actually fired" true (r.Twmc_qa.Chaos.faults_fired > 0)

let () =
  Alcotest.run "fault"
    [ ( "injector",
        [ Alcotest.test_case "nth trigger + fired log" `Quick test_nth_and_fired;
          Alcotest.test_case "wildcard pattern" `Quick test_wildcard_pattern;
          Alcotest.test_case "deadline latch" `Quick test_deadline_latch;
          Alcotest.test_case "plan serialization" `Quick test_plan_serialization ] );
      ( "atomic_io",
        [ Alcotest.test_case "short write detected" `Quick test_short_write_detected;
          Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
          QCheck_alcotest.to_alcotest atomic_io_crash_consistency ] );
      ( "checkpoint",
        [ Alcotest.test_case "rng cursor round-trip" `Quick test_rng_cursor_roundtrip;
          Alcotest.test_case "durable round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "name stays inside dir" `Quick
            test_checkpoint_name_confined;
          Alcotest.test_case "uncreatable dir warns" `Quick
            test_uncreatable_checkpoint_dir;
          Alcotest.test_case "validation rejects corruption" `Quick
            test_checkpoint_validation ] );
      ( "containment",
        [ Alcotest.test_case "stage1 fault retried" `Quick test_stage1_fault_retried;
          Alcotest.test_case "stage1 exhaustion degrades" `Quick
            test_stage1_exhaustion_degraded;
          Alcotest.test_case "deadline fault times out" `Quick
            test_deadline_fault_times_out;
          Alcotest.test_case "router fault contained" `Quick
            test_router_fault_contained;
          Alcotest.test_case "pool fault no hang" `Quick
            test_pool_fault_no_hang;
          Alcotest.test_case "Flow.run rolls back refine fault" `Quick
            test_run_rolls_back_refine_fault ] );
      ( "guard",
        [ Alcotest.test_case "expired guard short-circuits" `Quick
            test_guard_expired_short_circuit ] );
      ( "resume",
        [ Alcotest.test_case "kill at refinement 1 + resume" `Slow
            test_kill_resume_stage1_boundary;
          Alcotest.test_case "kill mid-stage-2 + resume" `Slow
            test_kill_resume_mid_stage2;
          Alcotest.test_case "resume at jobs=2" `Slow test_kill_resume_jobs2;
          Alcotest.test_case "wrong netlist rejected" `Quick
            test_resume_rejects_wrong_netlist;
          Alcotest.test_case "missing file rejected" `Quick
            test_resume_missing_file ] );
      ( "chaos",
        [ Alcotest.test_case "25-plan campaign has no survivors" `Slow
            test_chaos_mini ] ) ]
