open Twmc_geometry
module Params = Twmc_place.Params
module Stage1 = Twmc_place.Stage1
module Placement = Twmc_place.Placement
module Moves = Twmc_place.Moves
module Rng = Twmc_sa.Rng
module Diagnostic = Twmc_robust.Diagnostic
module Lint = Twmc_robust.Lint
module Invariant = Twmc_robust.Invariant
module Guard = Twmc_robust.Guard
module Checkpoint = Twmc_robust.Checkpoint
module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr
module Metrics = Twmc_obs.Metrics

type result = {
  netlist : Twmc_netlist.Netlist.t;
  stage1 : Stage1.result;
  stage2 : Stage2.result;
  teil_stage1 : float;
  area_stage1 : int;
  teil_final : float;
  area_final : int;
  chip : Rect.t;
  elapsed_s : float;
}

let assemble ~t0 nl (s1 : Stage1.result) (s2 : Stage2.result) =
  { netlist = nl;
    stage1 = s1;
    stage2 = s2;
    teil_stage1 = s1.Stage1.teil;
    area_stage1 = Rect.area s1.Stage1.chip;
    teil_final = s2.Stage2.teil;
    area_final = Rect.area s2.Stage2.chip;
    chip = s2.Stage2.chip;
    elapsed_s = Twmc_obs.Clock.s_of_ns (Twmc_obs.Clock.now_ns () - t0) }

(* A pool is only worth its domains when asked for: [jobs = 1] keeps every
   call on the caller's domain with zero synchronization.  When metrics are
   enabled the pool reports its task counts and per-domain busy time into
   the registry at shutdown. *)
let with_optional_pool ~jobs ?(obs = Obs.disabled) f =
  if jobs <= 1 then f None
  else
    Twmc_util.Domain_pool.with_pool ~jobs (fun p ->
        if Obs.metrics_on obs then
          Twmc_util.Domain_pool.set_metrics p obs.Obs.metrics;
        f (Some p))

(* Trajectory series, sampled sequentially from the traces the stages
   return — never from worker domains — so the series contents depend only
   on the result, not on scheduling. *)
let record_series obs (r : result) =
  if Obs.metrics_on obs then begin
    let m = obs.Obs.metrics in
    (* Declared up front so the keys are present in the export even when a
       stage recorded nothing (e.g. pool.utilization at jobs = 1). *)
    ignore (Metrics.series m "pool.utilization");
    ignore (Metrics.series m "route.overflow");
    let sample name (get : Stage1.temp_record -> float) trace =
      let s = Metrics.series m name in
      List.iter (fun rec_ -> Metrics.sample s (get rec_)) trace
    in
    let s1_trace = r.stage1.Stage1.trace in
    sample "stage1.temperature" (fun t -> t.Stage1.temperature) s1_trace;
    sample "stage1.acceptance" (fun t -> t.Stage1.acceptance) s1_trace;
    sample "stage1.cost" (fun t -> t.Stage1.cost) s1_trace;
    sample "stage1.c1" (fun t -> t.Stage1.c1) s1_trace;
    sample "stage1.c2" (fun t -> t.Stage1.c2_raw) s1_trace;
    sample "stage1.c3" (fun t -> t.Stage1.c3) s1_trace;
    sample "stage2.acceptance" (fun t -> t.Stage1.acceptance)
      r.stage2.Stage2.trace;
    Metrics.set (Metrics.gauge m "flow.teil_final") r.teil_final;
    Metrics.set (Metrics.gauge m "flow.area_final") (float_of_int r.area_final);
    Metrics.set (Metrics.gauge m "flow.elapsed_s") r.elapsed_s;
    (* Per-constraint-type violation gauges of the final placement; absent
       entirely on unconstrained netlists, so the export is unchanged. *)
    let p = r.stage2.Stage2.placement in
    if Placement.n_constraints p > 0 then begin
      Metrics.set (Metrics.gauge m "cons.c4") (Placement.c4 p);
      let by_kind = Hashtbl.create 8 in
      Array.iteri
        (fun k c ->
          let kind = Twmc_netlist.Constr.kind_name c in
          let prev =
            Option.value ~default:0.0 (Hashtbl.find_opt by_kind kind)
          in
          Hashtbl.replace by_kind kind
            (prev +. Placement.constraint_penalty p k))
        (Placement.constraints p);
      Hashtbl.iter
        (fun kind total ->
          Metrics.set
            (Metrics.gauge m (Printf.sprintf "cons.%s.penalty" kind))
            total)
        by_kind
    end
  end

(* Stage 1, possibly as a best-of-K multi-start (Sechen's independent-runs
   parallelism: replicas differ only in their split RNG streams).  The
   winner is chosen by cost with a lowest-index tie-break, so the outcome
   depends on [replicas] but never on [jobs]. *)
let stage1_best ~params ?core ?should_stop ?pool ?(obs = Obs.disabled) ~rng
    ~replicas nl =
  if replicas <= 1 then
    (Stage1.run ~params ?core ?should_stop ~obs ~rng nl, None)
  else
    let mr =
      Stage1.run_best_of_k ~params ?core ?should_stop ?pool ~obs ~rng
        ~k:replicas nl
    in
    (mr.Stage1.best, Some mr)

let run ?(params = Params.default) ?seed ?core ?(jobs = 1) ?(replicas = 1)
    ?(obs = Obs.disabled) nl =
  let seed = match seed with Some s -> s | None -> params.Params.seed in
  let rng = Twmc_sa.Rng.create ~seed in
  let t0 = Twmc_obs.Clock.now_ns () in
  Obs.span obs ~name:"flow"
    ~attrs:
      (if Obs.tracing obs then
         [ ("netlist", Attr.Str nl.Twmc_netlist.Netlist.name);
           ("cells", Attr.Int (Twmc_netlist.Netlist.n_cells nl));
           ("seed", Attr.Int seed); ("jobs", Attr.Int jobs);
           ("replicas", Attr.Int replicas) ]
       else [])
    (fun () ->
      with_optional_pool ~jobs ~obs (fun pool ->
          let s1, _ =
            Obs.span obs ~name:"stage1" (fun () ->
                stage1_best ~params ?core ?pool ~obs ~rng ~replicas nl)
          in
          let s2 = Stage2.run ~rng ?pool ~obs s1 in
          let r = assemble ~t0 nl s1 s2 in
          record_series obs r;
          r))

type status = Clean | Degraded | Invalid_input | Timed_out

let status_to_string = function
  | Clean -> "clean"
  | Degraded -> "degraded"
  | Invalid_input -> "invalid input"
  | Timed_out -> "timed out"

type resilient_result = {
  flow : result option;
  status : status;
  diagnostics : Diagnostic.t list;
  retries_used : int;
}

type checkpoint_cfg = { dir : string; every : int }

let checkpoint_path cfg nl =
  Filename.concat cfg.dir (nl.Twmc_netlist.Netlist.name ^ ".ckpt")

(* Terminal-status policy, shared by [run_resilient] and [resume] so a
   resumed flow classifies identically to an uninterrupted one. *)
let flow_status ~strict ~guard ~diags (s1 : Stage1.result) (s2 : Stage2.result)
    =
  let timed_out =
    Guard.expired guard || s1.Stage1.interrupted || s2.Stage2.interrupted
  in
  let degraded =
    s2.Stage2.final_route = None
    || s2.Stage2.rollbacks > 0
    || Diagnostic.fatal ~strict (List.rev diags) <> []
  in
  if timed_out then Timed_out else if degraded then Degraded else Clean

let s1_summary_of (s1 : Stage1.result) =
  { Checkpoint.s1_teil = s1.Stage1.teil;
    s1_c1 = s1.Stage1.c1;
    s1_residual_overlap = s1.Stage1.residual_overlap;
    s1_chip = s1.Stage1.chip;
    s1_core = s1.Stage1.core;
    s1_t_inf = s1.Stage1.t_inf;
    s1_s_t = s1.Stage1.s_t;
    s1_temperatures = s1.Stage1.temperatures_visited }

(* Best-effort durable-checkpoint writer: the RNG cursor is read at call
   time, so a write at a stage boundary captures exactly the stream position
   the continuation will consume.  A failed write — an uncreatable
   checkpoint directory included — degrades to a G410 warning: durability
   costs resume coverage, never the flow. *)
let durable_writer ~add ~params ~nl ~checkpoint ~seed_used ~rng ~s1 stage =
  match checkpoint with
  | None -> ()
  | Some cfg -> (
      Twmc_obs.Flight_recorder.note
        ~detail:
          (match stage with
          | Checkpoint.Stage1_done -> "stage1_done"
          | Checkpoint.Stage2_iteration _ -> "stage2_iteration")
        ?i:
          (match stage with
          | Checkpoint.Stage1_done -> None
          | Checkpoint.Stage2_iteration i -> Some i)
        "flow.checkpoint";
      let d =
        Checkpoint.durable ~stage ~seed_used
          ~rng_cursor:(Rng.to_binary_string rng) ~s1:(s1_summary_of s1)
          s1.Stage1.placement
      in
      match
        Twmc_util.Atomic_io.mkdir_p cfg.dir;
        Checkpoint.save ~path:(checkpoint_path cfg nl) ~netlist:nl ~params d
      with
      | () -> ()
      | exception ((Out_of_memory | Stack_overflow | Sys.Break
                   | Twmc_util.Fault.Abort _) as e) ->
          raise e
      | exception e ->
          add
            (Diagnostic.make ~severity:Diagnostic.Warning ~entity:"checkpoint"
               ~code:"G410"
               (Printf.sprintf "checkpoint write failed (flow continues): %s"
                  (Printexc.to_string e))))

let iteration_writer ~checkpoint ~write =
  match checkpoint with
  | None -> None
  | Some cfg ->
      let every = max 1 cfg.every in
      Some
        (fun i ->
          if i mod every = 0 then write (Checkpoint.Stage2_iteration i))

let run_resilient ?(params = Params.default) ?seed ?core ?(strict = false)
    ?time_budget_s ?(max_retries = 2) ?(retry_backoff_s = 0.05) ?(jobs = 1)
    ?(replicas = 1) ?checkpoint ?flight ?(obs = Obs.disabled) nl =
  let diags = ref [] in
  let add d =
    (* Every diagnostic leaves a breadcrumb in the black box, so a
       post-mortem dump carries the codes that led to the terminus. *)
    Twmc_obs.Flight_recorder.note ~detail:d.Diagnostic.code "flow.diag";
    diags := d :: !diags
  in
  let addl l = List.iter add l in
  let retries = ref 0 in
  let dump_flight () =
    match flight with
    | None -> ()
    | Some path -> Twmc_obs.Flight_recorder.dump path
  in
  let finish flow status =
    (* Invariant relied on by the chaos harness: a non-Clean terminal status
       is always explained by at least one diagnostic. *)
    if
      status = Timed_out
      && not (List.exists (fun d -> d.Diagnostic.code = "G401") !diags)
    then add (Guard.timeout_diag ~name:"flow");
    if Obs.metrics_on obs then begin
      let m = obs.Obs.metrics in
      Metrics.add (Metrics.counter m "flow.retries") !retries;
      Metrics.set
        (Metrics.gauge m "flow.diagnostics")
        (float_of_int (List.length !diags))
    end;
    if Obs.tracing obs then
      Obs.point obs ~name:"flow.status"
        ~attrs:
          [ ("status", Attr.Str (status_to_string status));
            ("retries", Attr.Int !retries) ]
        ();
    Twmc_obs.Flight_recorder.note ~detail:(status_to_string status)
      ~i:!retries "flow.status";
    (* The black box is dumped on every non-Clean terminus; crashes and
       injected aborts are covered by the exception wrapper below. *)
    if status <> Clean then dump_flight ();
    { flow; status; diagnostics = List.rev !diags; retries_used = !retries }
  in
  Twmc_obs.Flight_recorder.note ~detail:nl.Twmc_netlist.Netlist.name
    ~i:(Twmc_netlist.Netlist.n_cells nl) "flow.start";
  let lint = Lint.netlist nl in
  addl lint;
  if Diagnostic.fatal ~strict lint <> [] then finish None Invalid_input
  else
    match
    Obs.span obs ~name:"flow"
      ~attrs:
        (if Obs.tracing obs then
           [ ("netlist", Attr.Str nl.Twmc_netlist.Netlist.name);
             ("cells", Attr.Int (Twmc_netlist.Netlist.n_cells nl));
             ("jobs", Attr.Int jobs); ("replicas", Attr.Int replicas);
             ("resilient", Attr.Bool true) ]
         else [])
    @@ fun () ->
    with_optional_pool ~jobs ~obs (fun pool ->
    let guard = Guard.create ?time_budget_s () in
    let should_stop = Guard.should_stop guard in
    let base_seed = match seed with Some s -> s | None -> params.Params.seed in
    let t0 = Twmc_obs.Clock.now_ns () in
    (* Stage 1 with retry-on-failure: a throwing or invariant-violating
       anneal is retried from a perturbed seed — SA failures are usually
       trajectory-specific, so a different random walk sidesteps them. *)
    let rec stage1_attempt attempt =
      let seed = base_seed + (attempt * 7919) in
      let rng = Twmc_sa.Rng.create ~seed in
      let outcome =
        Guard.stage guard ~name:"stage1"
          (fun () ->
            Obs.span obs ~name:"stage1"
              ~attrs:
                (if Obs.tracing obs then [ ("attempt", Attr.Int attempt) ]
                 else [])
            @@ fun () ->
            let s1, multi =
              stage1_best ~params ?core ~should_stop ?pool ~obs ~rng ~replicas
                nl
            in
            (match multi with
            | Some mr ->
                add
                  (Diagnostic.make ~severity:Diagnostic.Info ~entity:"stage1"
                     ~code:"G404"
                     (Printf.sprintf
                        "best-of-%d: replica %d won (cost %.0f of %s)"
                        replicas mr.Stage1.best_index
                        mr.Stage1.replica_costs.(mr.Stage1.best_index)
                        (String.concat ","
                           (Array.to_list
                              (Array.map (Printf.sprintf "%.0f")
                                 mr.Stage1.replica_costs)))))
            | None -> ());
            let inv = Invariant.placement s1.Stage1.placement in
            addl inv;
            if Diagnostic.has_errors inv then
              failwith "stage-1 placement invariants violated";
            s1)
      in
      match outcome with
      | Guard.Ok s1 -> Ok (seed, rng, s1)
      | Guard.Failed d ->
          add d;
          if attempt < max_retries && not (Guard.expired guard) then begin
            incr retries;
            let next_seed = base_seed + ((attempt + 1) * 7919) in
            (* Exponential backoff with deterministic jitter.  The jitter is
               drawn from a throwaway generator split off the next attempt's
               seed, so the retry's own stream is exactly what a fresh run
               at that seed would consume; the delay never exceeds the
               guard's remaining budget. *)
            let jitter = Rng.unit_float (Rng.split (Rng.create ~seed:next_seed)) in
            let delay =
              retry_backoff_s *. (2.0 ** float_of_int attempt) *. (0.5 +. jitter)
            in
            let delay =
              match Guard.remaining_s guard with
              | None -> delay
              | Some r -> Float.min delay (Float.max 0.0 r)
            in
            add
              (Diagnostic.make ~severity:Diagnostic.Info ~entity:"stage1"
                 ~code:"G403"
                 (Printf.sprintf
                    "retrying with perturbed seed %d after %.1f ms backoff"
                    next_seed (delay *. 1000.0)));
            Guard.sleep_s delay;
            stage1_attempt (attempt + 1)
          end
          else Error d
    in
    match stage1_attempt 0 with
    | Error last ->
        (* Surface the root cause: the summary diagnostic carries the last
           attempt's failing code so callers (and the CLI) see *why* stage 1
           never succeeded, and a budget-driven exhaustion reports
           [Timed_out] rather than a generic degradation. *)
        add
          (Diagnostic.make ~severity:Diagnostic.Error ~entity:"stage1"
             ~code:"G405"
             (Printf.sprintf
                "stage 1 failed on all %d attempt(s); last failure: [%s] %s"
                (!retries + 1) last.Diagnostic.code last.Diagnostic.message));
        finish None (if Guard.expired guard then Timed_out else Degraded)
    | Ok (seed_used, rng, s1) ->
        let write_ckpt =
          durable_writer ~add ~params ~nl ~checkpoint ~seed_used ~rng ~s1
        in
        write_ckpt Checkpoint.Stage1_done;
        let on_iteration = iteration_writer ~checkpoint ~write:write_ckpt in
        let s2 =
          Stage2.run ~rng ~should_stop ~resilient:true ?pool ~obs ?on_iteration
            s1
        in
        addl s2.Stage2.diagnostics;
        let r = assemble ~t0 nl s1 s2 in
        record_series obs r;
        finish (Some r) (flow_status ~strict ~guard ~diags:!diags s1 s2))
    with
    | r -> r
    | exception e ->
        (* A crash (resource exhaustion, or the fault injector's simulated
           process death) escapes [run_resilient]'s guards by design; the
           flight recorder is dumped on the way out so the last entries
           name the site that was executing. *)
        dump_flight ();
        raise e

let resume ?(params = Params.default) ?(strict = false) ?time_budget_s
    ?(jobs = 1) ?checkpoint ?flight ?(obs = Obs.disabled) ~path nl =
  let diags = ref [] in
  let add d =
    Twmc_obs.Flight_recorder.note ~detail:d.Diagnostic.code "flow.diag";
    diags := d :: !diags
  in
  let addl l = List.iter add l in
  let dump_flight () =
    match flight with
    | None -> ()
    | Some p -> Twmc_obs.Flight_recorder.dump p
  in
  let finish flow status =
    if
      status = Timed_out
      && not (List.exists (fun d -> d.Diagnostic.code = "G401") !diags)
    then add (Guard.timeout_diag ~name:"flow");
    if Obs.metrics_on obs then
      Metrics.set
        (Metrics.gauge obs.Obs.metrics "flow.diagnostics")
        (float_of_int (List.length !diags));
    if Obs.tracing obs then
      Obs.point obs ~name:"flow.status"
        ~attrs:
          [ ("status", Attr.Str (status_to_string status));
            ("resumed", Attr.Bool true) ]
        ();
    Twmc_obs.Flight_recorder.note ~detail:(status_to_string status)
      "flow.status";
    if status <> Clean then dump_flight ();
    { flow; status; diagnostics = List.rev !diags; retries_used = 0 }
  in
  let invalid fmt =
    Printf.ksprintf
      (fun m ->
        add
          (Diagnostic.make ~severity:Diagnostic.Error ~entity:"checkpoint"
             ~code:"G412" m);
        finish None Invalid_input)
      fmt
  in
  Twmc_obs.Flight_recorder.note ~detail:nl.Twmc_netlist.Netlist.name
    "flow.resume";
  let lint = Lint.netlist nl in
  addl lint;
  if Diagnostic.fatal ~strict lint <> [] then finish None Invalid_input
  else
    match Checkpoint.load ~path ~netlist:nl ~params with
    | Error m -> invalid "cannot resume from %s: %s" path m
    | Ok d -> (
        match Rng.of_binary_string d.Checkpoint.rng_cursor with
        | None -> invalid "cannot resume from %s: RNG cursor does not deserialize" path
        | Some rng ->
            match
            Obs.span obs ~name:"flow"
              ~attrs:
                (if Obs.tracing obs then
                   [ ("netlist", Attr.Str nl.Twmc_netlist.Netlist.name);
                     ("cells", Attr.Int (Twmc_netlist.Netlist.n_cells nl));
                     ("jobs", Attr.Int jobs); ("resumed", Attr.Bool true) ]
                 else [])
            @@ fun () ->
            with_optional_pool ~jobs ~obs (fun pool ->
                let guard = Guard.create ?time_budget_s () in
                let should_stop = Guard.should_stop guard in
                let t0 = Twmc_obs.Clock.now_ns () in
                (* Reattach the derivable parts the payload stores only as
                   markers: a stage-1 [Dynamic] expander is rebuilt from
                   (params, netlist, stage-1 core) — the same inputs the
                   original run used — before restoring the snapshot. *)
                let d =
                  if d.Checkpoint.dynamic_expander then
                    let s1_core = d.Checkpoint.s1.Checkpoint.s1_core in
                    Checkpoint.with_expander d
                      (Placement.Dynamic
                         (Twmc_estimator.Dynamic_area.create
                            ~beta:params.Params.beta
                            ~core_w:(Rect.width s1_core)
                            ~core_h:(Rect.height s1_core) nl))
                  else d
                in
                let p =
                  Placement.create ~params
                    ~core:(Checkpoint.core_of d.Checkpoint.snapshot)
                    ~expander:Placement.No_expansion
                    ~rng:(Rng.create ~seed:d.Checkpoint.seed_used)
                    nl
                in
                Checkpoint.restore p d.Checkpoint.snapshot;
                let s = d.Checkpoint.s1 in
                let s1 =
                  { Stage1.placement = p;
                    t_inf = s.Checkpoint.s1_t_inf;
                    s_t = s.Checkpoint.s1_s_t;
                    core = s.Checkpoint.s1_core;
                    teil = s.Checkpoint.s1_teil;
                    c1 = s.Checkpoint.s1_c1;
                    residual_overlap = s.Checkpoint.s1_residual_overlap;
                    chip = s.Checkpoint.s1_chip;
                    move_stats = Moves.make_stats ();
                    trace = [];
                    temperatures_visited = s.Checkpoint.s1_temperatures;
                    interrupted = false }
                in
                let start_iteration =
                  match d.Checkpoint.stage with
                  | Checkpoint.Stage1_done -> 1
                  | Checkpoint.Stage2_iteration k -> k + 1
                in
                add
                  (Diagnostic.make ~severity:Diagnostic.Info
                     ~entity:"checkpoint" ~code:"G413"
                     (Printf.sprintf
                        "resumed from %s at stage-2 iteration %d (checkpoint: %s)"
                        path start_iteration
                        (match d.Checkpoint.stage with
                        | Checkpoint.Stage1_done -> "after stage 1"
                        | Checkpoint.Stage2_iteration k ->
                            Printf.sprintf "after refinement %d" k)));
                let write_ckpt =
                  durable_writer ~add ~params ~nl ~checkpoint
                    ~seed_used:d.Checkpoint.seed_used ~rng ~s1
                in
                let on_iteration =
                  iteration_writer ~checkpoint ~write:write_ckpt
                in
                let s2 =
                  Stage2.run ~rng ~should_stop ~resilient:true ?pool ~obs
                    ~start_iteration ?on_iteration s1
                in
                addl s2.Stage2.diagnostics;
                let r = assemble ~t0 nl s1 s2 in
                record_series obs r;
                finish (Some r) (flow_status ~strict ~guard ~diags:!diags s1 s2))
            with
            | r -> r
            | exception e ->
                dump_flight ();
                raise e)

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: TEIL %.0f -> %.0f, area %d -> %d (%.1fs, %d temps)@]"
    r.netlist.Twmc_netlist.Netlist.name r.teil_stage1 r.teil_final
    r.area_stage1 r.area_final r.elapsed_s
    r.stage1.Stage1.temperatures_visited
