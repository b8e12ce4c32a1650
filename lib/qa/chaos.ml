module Clock = Twmc_obs.Clock
module Fault = Twmc_util.Fault
module Flow = Twmc.Flow
module Checkpoint = Twmc_robust.Checkpoint
module Diagnostic = Twmc_robust.Diagnostic
module Rng = Twmc_sa.Rng

type survivor = {
  index : int;
  case : Fuzz_case.t;
  plan : Fault.plan;
  jobs : int;
  reason : string;
}

type report = {
  plans_run : int;
  clean : int;
  degraded : int;
  invalid : int;
  timed_out : int;
  rejected : int;
  faults_fired : int;
  checkpoints_validated : int;
  survivors : survivor list;
  elapsed_s : float;
}

let point_sites = [| "stage1.replica"; "stage2.refine"; "router.net"; "pool.task" |]
let patterns = [| "stage1.*"; "stage2.*"; "router.*"; "*" |]

let gen_rule ~rng =
  if Rng.bool_with_prob rng 0.25 then
    (* An I/O fault aimed at the durable-checkpoint writer. *)
    { Fault.site = "io.write";
      nth = Rng.int_incl rng 1 3;
      kind =
        Rng.pick rng
          [| Fault.Torn_write; Fault.Short_write; Fault.Io_error; Fault.Exn |] }
  else
    let site =
      if Rng.bool_with_prob rng 0.3 then Rng.pick rng patterns
      else Rng.pick rng point_sites
    in
    let nth =
      (* The router site fires once per net, so give its rules room to land
         mid-routing rather than always on the first net. *)
      match site with
      | "router.net" | "router.*" | "*" -> Rng.int_incl rng 1 20
      | _ -> Rng.int_incl rng 1 3
    in
    { Fault.site;
      nth;
      kind = Rng.pick rng [| Fault.Exn; Fault.Exn; Fault.Deadline; Fault.Io_error |] }

(* 1–3 rules; sites, trigger counts and kinds drawn from the catalog
   (never [Abort]). *)
let gen_plan ~rng =
  let n = Rng.int_incl rng 1 3 in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (gen_rule ~rng :: acc) in
  go n []

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* One plan: arm, run the flow with checkpointing into a scratch dir,
   classify the terminal state, then re-validate whatever checkpoint
   survived.  Returns (status option, fired count, ckpt_validated, reasons). *)
let run_one ~scratch ~case ~plan ~jobs nl =
  let params = Fuzz_case.params case in
  let core = Fuzz_case.core case nl in
  let cfg = { Flow.dir = scratch; every = 1 } in
  let reasons = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> reasons := m :: !reasons) fmt in
  rm_rf scratch;
  Fault.arm plan;
  let status, fired =
    Fun.protect
      ~finally:(fun () -> Fault.disarm ())
      (fun () ->
        let status =
          match
            Flow.run_resilient ~params ~seed:case.Fuzz_case.seed ?core
              ~max_retries:1 ~jobs ~replicas:case.Fuzz_case.replicas
              ~checkpoint:cfg nl
          with
          | rr ->
              (if rr.Flow.status <> Flow.Clean && rr.Flow.diagnostics = []
               then
                 fail "status %s with no diagnostics"
                   (Flow.status_to_string rr.Flow.status));
              Some rr.Flow.status
          | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) ->
              raise e
          | exception e ->
              fail "uncaught exception escaped the resilient flow: %s"
                (Printexc.to_string e);
              None
        in
        (status, List.length (Fault.fired ())))
  in
  (* Crash-consistency of the durable checkpoint: whatever the faults did,
     a file named like a checkpoint must either be absent or load cleanly. *)
  let ckpt_ok =
    let path = Flow.checkpoint_path cfg nl in
    if not (Sys.file_exists path) then false
    else
      match Checkpoint.load ~path ~netlist:nl ~params with
      | Ok _ -> true
      | Error m ->
          fail "surviving checkpoint does not validate: %s" m;
          false
  in
  rm_rf scratch;
  (status, fired, ckpt_ok, List.rev !reasons)

let save_survivor ~dir s =
  Twmc_util.Atomic_io.mkdir_p dir;
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "# chaos survivor %d: %s\n" s.index s.reason);
  Buffer.add_string b (Printf.sprintf "# jobs %d\n" s.jobs);
  Buffer.add_string b "# --- fault plan ---\n";
  Buffer.add_string b (Fault.plan_to_string s.plan);
  Buffer.add_string b "# --- fuzz case ---\n";
  Buffer.add_string b (Fuzz_case.to_string s.case);
  Twmc_util.Atomic_io.write_string
    (Filename.concat dir (Printf.sprintf "chaos-%d.txt" s.index))
    (Buffer.contents b);
  (* The flight ring still holds this plan's events (it is cleared before
     each plan runs), so the black box lands next to the repro file. *)
  Twmc_obs.Flight_recorder.dump
    (Filename.concat dir (Printf.sprintf "chaos-%d.flight.jsonl" s.index))

let campaign ?out_dir ?(progress = fun _ -> ()) ~seed ~plans () =
  let rng = Rng.create ~seed in
  let t0 = Clock.now_ns () in
  let clean = ref 0 and degraded = ref 0 and invalid = ref 0 in
  let timed_out = ref 0 and rejected = ref 0 in
  let fired_total = ref 0 and ckpts = ref 0 in
  let survivors = ref [] in
  let scratch =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "twmc-chaos-%d-%d" (Unix.getpid ()) seed)
  in
  for i = 1 to plans do
    let case =
      { (Fuzz_case.generate ~rng) with
        Fuzz_case.jobs_check = false;
        time_budget_s = None;
        a_c = 2 }
    in
    let plan = gen_plan ~rng in
    let jobs = if Rng.bool_with_prob rng 0.3 then 2 else 1 in
    (* A fresh ring per plan: a survivor's flight dump then contains only
       the events of the run that produced it. *)
    Twmc_obs.Flight_recorder.clear ();
    (match Fuzz_case.netlist case with
    | Error _ -> incr rejected
    | Ok nl ->
        let status, fired, ckpt_ok, reasons =
          run_one ~scratch ~case ~plan ~jobs nl
        in
        fired_total := !fired_total + fired;
        if ckpt_ok then incr ckpts;
        (match status with
        | Some Flow.Clean -> incr clean
        | Some Flow.Degraded -> incr degraded
        | Some Flow.Invalid_input -> incr invalid
        | Some Flow.Timed_out -> incr timed_out
        | None -> ());
        List.iter
          (fun reason ->
            let s = { index = i; case; plan; jobs; reason } in
            (match out_dir with Some dir -> save_survivor ~dir s | None -> ());
            survivors := s :: !survivors)
          reasons);
    progress i
  done;
  { plans_run = plans;
    clean = !clean;
    degraded = !degraded;
    invalid = !invalid;
    timed_out = !timed_out;
    rejected = !rejected;
    faults_fired = !fired_total;
    checkpoints_validated = !ckpts;
    survivors = List.rev !survivors;
    elapsed_s = Clock.s_of_ns (Clock.now_ns () - t0) }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d plan(s) in %.1fs: %d clean, %d degraded, %d invalid input, %d \
     timed out, %d rejected; %d fault(s) fired, %d checkpoint(s) \
     re-validated, %d SURVIVOR(S)@,"
    r.plans_run r.elapsed_s r.clean r.degraded r.invalid r.timed_out
    r.rejected r.faults_fired r.checkpoints_validated
    (List.length r.survivors);
  List.iter
    (fun s ->
      Format.fprintf ppf "survivor %d (jobs %d): %s@,  plan: %a@,  case: %a@,"
        s.index s.jobs s.reason Fault.pp_plan s.plan Fuzz_case.pp s.case)
    r.survivors;
  Format.fprintf ppf "@]"
