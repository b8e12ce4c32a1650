(** Chaos campaigns: fuzzed fault-injection plans driven through the
    resilient flow.

    Each plan pairs a generated {!Fuzz_case} netlist with a small
    {!Twmc_util.Fault.plan} (1–3 rules over the fault-site catalog:
    [stage1.replica], [stage2.refine], [router.net], [pool.task],
    [io.write] and prefix patterns thereof) and runs
    {!Twmc.Flow.run_resilient} with durable checkpointing enabled under the
    armed injector.  The harness asserts the robustness contract:

    - the flow {e always} terminates in Clean / Degraded / Invalid input /
      Timed out — an escaping exception is a campaign failure;
    - every non-Clean terminal status is explained by at least one
      diagnostic;
    - any checkpoint file left on disk loads and validates cleanly — torn
      or short writes must never produce a corrupt-but-accepted checkpoint.

    Plans never contain [Abort] rules: simulated process death is exercised
    by the dedicated kill-and-resume tests, not by the campaign (which must
    outlive its flows).  Everything is reproducible from [seed]. *)

type survivor = {
  index : int;  (** 1-based plan index within the campaign. *)
  case : Fuzz_case.t;
  plan : Twmc_util.Fault.plan;
  jobs : int;
  reason : string;
}

type report = {
  plans_run : int;
  clean : int;
  degraded : int;
  invalid : int;
  timed_out : int;
  rejected : int;  (** Cases whose netlist was rejected by construction. *)
  faults_fired : int;  (** Total rules that actually triggered. *)
  checkpoints_validated : int;
      (** Checkpoint files found on disk after a flow and re-validated. *)
  survivors : survivor list;  (** Contract violations — must be empty. *)
  elapsed_s : float;
}

val campaign :
  ?out_dir:string ->
  ?progress:(int -> unit) ->
  seed:int ->
  plans:int ->
  unit ->
  report
(** Run [plans] fault plans.  [out_dir] (created if needed) receives, per
    survivor, a [chaos-<index>.txt] artifact — the plan, the case and the
    reason, enough to replay by hand — and a [chaos-<index>.flight.jsonl]
    dump of the {!Twmc_obs.Flight_recorder} ring as it stood when the
    violation was detected (the ring is cleared before each plan, so the
    dump covers only the offending run).  [progress i] is called after
    plan [i] completes.  The injector is always disarmed on exit, even if
    the campaign itself dies. *)

val pp_report : Format.formatter -> report -> unit
