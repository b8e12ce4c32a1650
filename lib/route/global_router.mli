(** The complete global router (Sec 4.2): phase 1 stores ≈M alternative
    routes per net; phase 2 selects one per net under the channel-edge
    capacity constraints.

    Inputs are exactly what the paper prescribes — a net list (as routing
    tasks with candidate terminal nodes, from {!Twmc_channel.Pin_map}) and a
    channel graph — so the router is independent of the layout style. *)

type routed_net = {
  net : int;
  route : Steiner.route;
  alternatives : int;  (** [M_i], how many routes phase 1 stored. *)
}

type result = {
  graph : Twmc_channel.Graph.t;
  routed : routed_net list;
  unroutable : int list;
      (** Nets whose terminals span disconnected graph components, plus any
          skipped when a [should_stop] budget fired mid-enumeration. *)
  total_length : int;  (** [L] over routed nets. *)
  overflow : int;  (** Final [X]. *)
  initial_overflow : int;
      (** [X] before phase-2 interchange (all nets on their shortest
          route); [overflow <= initial_overflow] always. *)
  edge_density : int array;
  assign_attempts : int;
}

val route :
  ?m:int ->
  ?budget_factor:int ->
  ?should_stop:(unit -> bool) ->
  ?pool:Twmc_util.Domain_pool.t ->
  ?obs:Twmc_obs.Ctx.t ->
  rng:Twmc_sa.Rng.t ->
  graph:Twmc_channel.Graph.t ->
  tasks:Twmc_channel.Pin_map.net_task list ->
  unit ->
  result
(** [m] defaults to 20 (Sec 4.2.1: "typically on the order of 20").
    [should_stop] is polled between nets during phase-1 enumeration; when it
    fires the remaining nets are reported unroutable (graceful
    degradation under a wall-clock budget).  [pool] parallelizes the
    phase-1 per-net enumeration (the graph is only read); alternatives are
    merged back in net order and phase 2 is sequential, so the result is
    identical with or without a pool.

    [obs] (default disabled, zero overhead) wraps the call in a ["route"]
    span with two children, ["route.phase1"] around the per-net
    enumeration (pool fan-out and join included) and ["route.phase2"]
    around the assignment.  It emits one ["route.net"] point per net
    (alternatives enumerated, in net order on the caller's domain —
    deterministic at any pool size) and one ["route.assign"] point (routed
    [nets], overflow before/after phase 2, length, interchange attempts,
    [unroutable] nets).  Never draws from [rng]: routing bytes are
    identical with it on or off. *)

val node_density : result -> int array
(** Per region: the maximum density of its incident channel-graph edges —
    the [d] of Eqn 22 used to derive required channel widths. *)
