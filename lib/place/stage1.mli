(** Stage 1 of TimberWolfMC (Sec 3): simulated-annealing placement with the
    dynamic interconnect-area estimator.

    The driver: sizes the core (Sec 2.2 "Determining the Core Area"),
    normalizes the overlap penalty so [p₂·C₂ ≈ η·C₁] at [T∞] (Eqn 9),
    scales the temperature profile by [S_T] (Eqns 19–21), and anneals with
    the Table 1 schedule until the range-limiter window reaches its minimum
    span. *)

type temp_record = Anneal_loop.temp_record = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;
  window : float * float;
}
(** One stage-1 or stage-2 annealing temperature; see
    {!Anneal_loop.temp_record}. *)

val normalize_p2 :
  Twmc_sa.Rng.t -> Placement.t -> eta:float -> samples:int -> unit
(** The Sec 3.1.2 normalization: sample [samples] random configurations and
    set [p₂] so that [p₂·C₂ = η·C₁] over the ensemble ([p₂ = 1] when the
    sampled overlap is zero).  Mutates the placement (the last sampled
    configuration remains) and consumes [rng].  Exposed for the QA
    metamorphic oracles: for identical rng streams, [p₂] is proportional
    to [η]. *)

val fill_target : float
(** The fraction of the core the expanded cells fill: 0.75 when stage 1
    sizes the core, and again when stage 2 resizes it. *)

val initial_core : Twmc_netlist.Netlist.t -> Twmc_geometry.Rect.t
(** The core stage 1 anneals in when given none: {!Twmc_estimator.Core_area}
    at {!fill_target}, centered on the origin. *)

type result = {
  placement : Placement.t;
  t_inf : float;
  s_t : float;
  core : Twmc_geometry.Rect.t;
  teil : float;
  c1 : float;
  residual_overlap : float;  (** [C₂] at the end of stage 1. *)
  chip : Twmc_geometry.Rect.t;
  move_stats : Moves.stats;
  trace : temp_record list;
  temperatures_visited : int;
  interrupted : bool;
      (** True when [should_stop] cut the anneal short; the placement is the
          (consistent) state reached so far, not a converged one. *)
}

val run :
  ?params:Params.t ->
  ?core:Twmc_geometry.Rect.t ->
  ?should_stop:(unit -> bool) ->
  ?obs:Twmc_obs.Ctx.t ->
  ?replica:int ->
  rng:Twmc_sa.Rng.t ->
  Twmc_netlist.Netlist.t ->
  result
(** When [core] is omitted it is {!initial_core}.  After this setup the anneal is one
    {!Anneal_loop.run}: the full move set from [T∞] down the Table 1
    schedule to a floor of [10⁻⁴·T∞], stopping at the minimum window span
    (Sec 3.3), then quenching.  [should_stop] is polled every 128 moves
    inside the inner loop (cooperative timeout): when it returns true the
    anneal exits after repairing its cost caches, flagging [interrupted].

    [obs] (default disabled, zero overhead) wraps the anneal in a
    ["stage1.anneal"] span and its quench tail in a ["stage1.quench"] span
    inside it, emits one ["stage1.temp"] point per temperature (cost,
    C1/C2/C3 decomposition, acceptance rate, range-limiter window,
    average expanded cell area), then one
    ["stage1.moves"] point with the move counters and one
    ["stage1.classes"] point per move class.  [replica]
    tags every emitted event with the replica index (set by
    {!run_best_of_k}).  Instrumentation only reads placement state:
    results are bit-identical with it on or off. *)

type multi_result = {
  best : result;  (** The replica with the lowest final {!Placement.total_cost}. *)
  best_index : int;  (** Its index in [0, k); ties break to the lowest. *)
  replica_costs : float array;  (** Final total cost of every replica. *)
}

val run_best_of_k :
  ?params:Params.t ->
  ?core:Twmc_geometry.Rect.t ->
  ?should_stop:(unit -> bool) ->
  ?pool:Twmc_util.Domain_pool.t ->
  ?obs:Twmc_obs.Ctx.t ->
  rng:Twmc_sa.Rng.t ->
  k:int ->
  Twmc_netlist.Netlist.t ->
  multi_result
(** Sechen's Sec 3 flow run as [k] independent replicas — identical except
    for their random streams, which are {!Twmc_sa.Rng.split} children of
    [rng] drawn sequentially before any replica starts.  Replicas anneal in
    parallel on [pool] when given (sequentially otherwise), and the result
    is bit-identical for any pool size at fixed [k]: each replica depends
    only on its own stream, and the winner is selected by strict cost
    comparison with a lowest-index tie-break.  [rng] is advanced by the
    [k] splits, so downstream draws are also independent of the pool.
    [should_stop] is shared by all replicas (each polls it cooperatively).
    [obs] adds a ["stage1.best_of_k"] span, per-replica spans/points
    (tagged with their replica index), then one ["stage1.replica"] point
    per replica ([replica], final [cost]; emitted in index order after the
    join, so deterministic at any pool size) and a ["stage1.winner"]
    point.
    Raises [Invalid_argument] when [k <= 0]. *)

val run_replicas :
  params:Params.t ->
  ?core:Twmc_geometry.Rect.t ->
  ?should_stop:(unit -> bool) ->
  ?pool:Twmc_util.Domain_pool.t ->
  ?obs:Twmc_obs.Ctx.t ->
  rng:Twmc_sa.Rng.t ->
  replicas:int ->
  Twmc_netlist.Netlist.t ->
  result * multi_result option
(** Stage 1 as [replicas] independent anneals: {!run} when [replicas <= 1]
    (no multi-start outcome), {!run_best_of_k} with [k = replicas]
    otherwise, returning its winner and the whole outcome.  The flow driver
    and [twmc place] both start here, so the result depends on [replicas]
    and never on the pool. *)
