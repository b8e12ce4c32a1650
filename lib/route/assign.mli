(** Phase two of the global router (Sec 4.2.2): select one route per net
    from the stored alternatives by random interchange, minimizing total
    length [L] (Eqn 23) subject to the channel-edge capacities via the
    excess-track count [X] (Eqn 24).

    Generation picks a random over-capacity edge, a random net using it and
    a random alternative with [ΔX <= 0]; the new route is accepted when
    [ΔX < 0], or when [ΔX = 0] and [ΔL <= 0].  The procedure stops when
    [X = 0] (covering the paper's "all k=1 and X=0" fast path), or when
    neither [L] nor [X] has changed for [M·N] attempts.

    The over-capacity edges are kept as flags in a Fenwick tree over edge
    ids, updated as densities change, so an attempt draws its edge in
    O(log E) without scanning the edges.  The draw is [Rng.int_incl] over
    their count, read as an index into the over-capacity edges in
    decreasing id order.  Each edge keeps the nets using it in an array,
    oldest first, and the net is drawn the same way: [Rng.int_incl] over
    their count, read newest first, which is [Rng.pick_list]'s draw from
    the list of users newest first. *)

type result = {
  chosen : int array;  (** Per net: index into its alternative list. *)
  total_length : int;  (** Final [L]. *)
  overflow : int;  (** Final [X]. *)
  initial_overflow : int;
      (** [X] of the all-shortest ([k = 1]) selection before any
          interchange — the baseline the random interchange improves on. *)
  edge_density : int array;  (** Final [D_j] per channel-graph edge. *)
  attempts : int;
  skipped : int list;
      (** Nets (indices into [alternatives]) that arrived with no stored
          alternative: they are excluded from selection and from [L]/[X]
          instead of aborting the run — the caller reports them
          unroutable. *)
}

val run :
  ?m:int ->
  rng:Twmc_sa.Rng.t ->
  graph:Twmc_channel.Graph.t ->
  alternatives:Steiner.alternatives array ->
  unit ->
  result
(** [alternatives.(i)] are net [i]'s routes, shortest first (route 0 is
    the [k = 1] route), each with distinct edges; a net with none is
    degraded into [skipped] rather than rejected.  [m] is the [M] of the
    stopping criterion (defaults to the maximum alternative count). *)
