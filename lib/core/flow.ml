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

(* The finished flow's figures, as one point: final TEIL, area and elapsed
   seconds, and on a constrained netlist C4 with its per-kind penalty
   totals (absent entirely on unconstrained netlists).  The metrics fold
   samples its stage trajectories when it reads this point. *)
let observe_result obs (r : result) =
  if Obs.tracing obs then begin
    let p = r.stage2.Stage2.placement in
    let constraints =
      if Placement.n_constraints p = 0 then []
      else begin
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
        ("c4", Attr.Float (Placement.c4 p))
        :: (Hashtbl.fold
              (fun kind total acc ->
                ("penalty." ^ kind, Attr.Float total) :: acc)
              by_kind []
           |> List.sort compare)
      end
    in
    Obs.point obs ~name:"flow.result"
      ~attrs:
        ([ ("teil", Attr.Float r.teil_final); ("area", Attr.Int r.area_final);
           ("elapsed_s", Attr.Float r.elapsed_s) ]
        @ constraints)
      ()
  end

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

(* The circuit name is whatever token the input file gives; with its path
   separators mapped to '_' it cannot name a file outside [dir]. *)
let checkpoint_path cfg nl =
  let name =
    String.map
      (function '/' | '\\' -> '_' | c -> c)
      nl.Twmc_netlist.Netlist.name
  in
  Filename.concat cfg.dir (name ^ ".ckpt")

(* Terminal-status policy, one for fresh and resumed sessions alike, so a
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

type anneal = {
  seed : int;
  core : Rect.t option;
  replicas : int;
  max_retries : int;
}

(* Base of the exponential backoff between stage-1 retries. *)
let retry_backoff_s = 0.05

(* Where a session's stage-1 placement comes from: annealed afresh, with
   seed-perturbed retries, or restored from a durable checkpoint file. *)
type head = Anneal of anneal | Resume of string

(* A checkpoint file validated against the netlist and params, with its RNG
   cursor decoded; [Error] carries the reason for the G412 refusal. *)
let load_checkpoint ~params ~path nl =
  match Checkpoint.load ~path ~netlist:nl ~params with
  | Error m -> Error m
  | Ok d -> (
      match Rng.of_binary_string d.Checkpoint.rng_cursor with
      | None -> Error "RNG cursor does not deserialize"
      | Some rng -> Ok (d, rng))

(* The stage-1 result a checkpoint describes.  The derivable parts the
   payload stores only as markers are reattached first: a stage-1 [Dynamic]
   expander is rebuilt from (params, netlist, stage-1 core) — the same
   inputs the original run used — before the snapshot is restored. *)
let restore_stage1 ~params nl (d : Checkpoint.durable) =
  let d =
    if d.Checkpoint.dynamic_expander then
      let s1_core = d.Checkpoint.s1.Checkpoint.s1_core in
      Checkpoint.with_expander d
        (Placement.Dynamic
           (Twmc_estimator.Dynamic_area.create ~beta:params.Params.beta
              ~core_w:(Rect.width s1_core) ~core_h:(Rect.height s1_core) nl))
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

(* The one flow driver behind [run_resilient], [resume] and [run]. *)
let session ~params ~strict ~time_budget_s ~jobs ~checkpoint ~flight ~obs
    ~head nl =
  let resumed = match head with Resume _ -> true | Anneal _ -> false in
  let diags = ref [] in
  let add d =
    (* Every diagnostic leaves a breadcrumb in the black box, so a
       post-mortem dump carries the codes that led to the terminus. *)
    Twmc_obs.Flight_recorder.note ~detail:d.Diagnostic.code "flow.diag";
    diags := d :: !diags
  in
  let addl l = List.iter add l in
  let retries = ref 0 in
  let dump_flight () = Option.iter Twmc_obs.Flight_recorder.dump flight in
  let finish flow status =
    (* Invariant relied on by the chaos harness: a non-Clean terminal status
       is always explained by at least one diagnostic. *)
    if
      status = Timed_out
      && not (List.exists (fun d -> d.Diagnostic.code = "G401") !diags)
    then add (Guard.timeout_diag ~name:"flow");
    if Obs.tracing obs then
      Obs.point obs ~name:"flow.status"
        ~attrs:
          [ ("status", Attr.Str (status_to_string status));
            ("retries", Attr.Int !retries); ("resumed", Attr.Bool resumed);
            ("diagnostics", Attr.Int (List.length !diags)) ]
        ();
    Twmc_obs.Flight_recorder.note ~detail:(status_to_string status)
      ~i:!retries "flow.status";
    (* The black box is dumped on every non-Clean terminus; crashes and
       injected aborts are covered by the exception wrapper in [drive]. *)
    if status <> Clean then dump_flight ();
    { flow; status; diagnostics = List.rev !diags; retries_used = !retries }
  in
  (* Stage 1 with retry-on-failure: a throwing or invariant-violating
     anneal is retried from a perturbed seed — SA failures are usually
     trajectory-specific, so a different random walk sidesteps them. *)
  let anneal_stage1 a ~guard ~pool =
    let should_stop = Guard.should_stop guard in
    let rec stage1_attempt attempt =
      let seed = a.seed + (attempt * 7919) in
      let rng = Rng.create ~seed in
      let outcome =
        Guard.stage guard ~name:"stage1" (fun () ->
            Obs.span obs ~name:"stage1"
              ~attrs:
                (if Obs.tracing obs then [ ("attempt", Attr.Int attempt) ]
                 else [])
            @@ fun () ->
            let s1, multi =
              Stage1.run_replicas ~params ?core:a.core ~should_stop ?pool ~obs
                ~rng ~replicas:a.replicas nl
            in
            (match multi with
            | Some mr ->
                add
                  (Diagnostic.make ~severity:Diagnostic.Info ~entity:"stage1"
                     ~code:"G404"
                     (Printf.sprintf
                        "best-of-%d: replica %d won (cost %.0f of %s)"
                        a.replicas mr.Stage1.best_index
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
      | Guard.Ok s1 -> Some (seed, rng, s1, 1)
      | Guard.Failed d ->
          add d;
          if attempt < a.max_retries && not (Guard.expired guard) then begin
            incr retries;
            let next_seed = a.seed + ((attempt + 1) * 7919) in
            (* Exponential backoff with deterministic jitter.  The jitter is
               drawn from a throwaway generator split off the next attempt's
               seed, so the retry's own stream is exactly what a fresh run
               at that seed would consume; the delay never exceeds the
               guard's remaining budget. *)
            let jitter = Rng.unit_float (Rng.split (Rng.create ~seed:next_seed)) in
            let delay =
              retry_backoff_s *. (2.0 ** float_of_int attempt)
              *. (0.5 +. jitter)
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
          else begin
            (* Surface the root cause: the summary diagnostic carries the
               last attempt's failing code so callers (and the CLI) see
               *why* stage 1 never succeeded. *)
            add
              (Diagnostic.make ~severity:Diagnostic.Error ~entity:"stage1"
                 ~code:"G405"
                 (Printf.sprintf
                    "stage 1 failed on all %d attempt(s); last failure: [%s] %s"
                    (!retries + 1) d.Diagnostic.code d.Diagnostic.message));
            None
          end
    in
    stage1_attempt 0
  in
  (* Everything from the flow span on.  [stage1] yields the stage-1 result
     with the seed it used, the generator stage 2 continues on and the
     first refinement to run, or [None] when stage 1 never succeeded — a
     budget-driven exhaustion then reports [Timed_out] rather than a
     generic degradation. *)
  let drive ~seed ~replicas stage1 =
    match
      Obs.span obs ~name:"flow"
        ~attrs:
          (if Obs.tracing obs then
             [ ("netlist", Attr.Str nl.Twmc_netlist.Netlist.name);
               ("cells", Attr.Int (Twmc_netlist.Netlist.n_cells nl));
               ("seed", Attr.Int seed); ("jobs", Attr.Int jobs);
               ("replicas", Attr.Int replicas);
               ("resumed", Attr.Bool resumed) ]
           else [])
      @@ fun () ->
      Twmc_util.Domain_pool.with_optional_pool ~jobs ~obs (fun pool ->
          let guard = Guard.create ?time_budget_s () in
          let t0 = Twmc_obs.Clock.now_ns () in
          match stage1 ~guard ~pool with
          | None ->
              finish None (if Guard.expired guard then Timed_out else Degraded)
          | Some (seed_used, rng, s1, start_iteration) ->
              let write_ckpt =
                durable_writer ~add ~params ~nl ~checkpoint ~seed_used ~rng ~s1
              in
              if not resumed then write_ckpt Checkpoint.Stage1_done;
              let on_iteration =
                Option.map
                  (fun cfg i ->
                    if i mod max 1 cfg.every = 0 then
                      write_ckpt (Checkpoint.Stage2_iteration i))
                  checkpoint
              in
              let s2 =
                Stage2.run ~rng ~should_stop:(Guard.should_stop guard) ?pool
                  ~obs ~start_iteration ?on_iteration s1
              in
              addl s2.Stage2.diagnostics;
              let r = assemble ~t0 nl s1 s2 in
              observe_result obs r;
              finish (Some r) (flow_status ~strict ~guard ~diags:!diags s1 s2))
    with
    | r -> r
    | exception e ->
        (* A crash (resource exhaustion, or the fault injector's simulated
           process death) escapes the guards by design; the flight recorder
           is dumped on the way out so the last entries name the site that
           was executing. *)
        dump_flight ();
        raise e
  in
  Twmc_obs.Flight_recorder.note ~detail:nl.Twmc_netlist.Netlist.name
    ~i:(Twmc_netlist.Netlist.n_cells nl)
    (if resumed then "flow.resume" else "flow.start");
  let lint = Lint.netlist nl in
  addl lint;
  if Diagnostic.fatal ~strict lint <> [] then finish None Invalid_input
  else
    match head with
    | Anneal a -> drive ~seed:a.seed ~replicas:a.replicas (anneal_stage1 a)
    | Resume path -> (
        (* The checkpoint is validated before anything runs: corrupt input
           never half-restores, and its refusal opens no flow span. *)
        match load_checkpoint ~params ~path nl with
        | Error m ->
            add
              (Diagnostic.make ~severity:Diagnostic.Error ~entity:"checkpoint"
                 ~code:"G412"
                 (Printf.sprintf "cannot resume from %s: %s" path m));
            finish None Invalid_input
        | Ok (d, rng) ->
            drive ~seed:d.Checkpoint.seed_used ~replicas:1
              (fun ~guard:_ ~pool:_ ->
                let start_iteration, at =
                  match d.Checkpoint.stage with
                  | Checkpoint.Stage1_done -> (1, "after stage 1")
                  | Checkpoint.Stage2_iteration k ->
                      (k + 1, Printf.sprintf "after refinement %d" k)
                in
                let s1 = restore_stage1 ~params nl d in
                add
                  (Diagnostic.make ~severity:Diagnostic.Info
                     ~entity:"checkpoint" ~code:"G413"
                     (Printf.sprintf
                        "resumed from %s at stage-2 iteration %d (checkpoint: %s)"
                        path start_iteration at));
                Some (d.Checkpoint.seed_used, rng, s1, start_iteration)))

let run_resilient ?(params = Params.default) ?seed ?core ?(strict = false)
    ?time_budget_s ?(max_retries = 2) ?(jobs = 1)
    ?(replicas = 1) ?checkpoint ?flight ?(obs = Obs.disabled) nl =
  let seed = Option.value seed ~default:params.Params.seed in
  session ~params ~strict ~time_budget_s ~jobs ~checkpoint ~flight ~obs
    ~head:(Anneal { seed; core; replicas; max_retries })
    nl

let resume ?(params = Params.default) ?(strict = false) ?time_budget_s
    ?(jobs = 1) ?checkpoint ?flight ?(obs = Obs.disabled) ~path nl =
  session ~params ~strict ~time_budget_s ~jobs ~checkpoint ~flight ~obs
    ~head:(Resume path) nl

let run ?params ?seed ?core ?jobs ?replicas ?obs nl =
  let rr = run_resilient ?params ?seed ?core ?jobs ?replicas ?obs nl in
  match rr.flow with
  | Some r -> r
  | None ->
      failwith
        (Printf.sprintf "Flow.run: %s: %s"
           (status_to_string rr.status)
           (String.concat "; " (List.map Diagnostic.to_string rr.diagnostics)))

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: TEIL %.0f -> %.0f, area %d -> %d (%.1fs, %d temps)@]"
    r.netlist.Twmc_netlist.Netlist.name r.teil_stage1 r.teil_final
    r.area_stage1 r.area_final r.elapsed_s
    r.stage1.Stage1.temperatures_visited
