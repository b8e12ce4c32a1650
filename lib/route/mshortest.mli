(** M-shortest loopless paths between node sets on the channel graph.

    The paper uses Lawler's M-shortest-path procedure for two-pin nets
    (Sec 4.2.1); this implements the equivalent deviation algorithm (Yen's),
    generalized to source {e sets} and target {e sets} via zero-length
    virtual terminals — which is also what makes electrically-equivalent
    pins free to the router.

    Both searches run on the graph's compressed neighbour slots with a
    binary heap and allocate their scratch once per call, so concurrent
    calls on one graph share nothing mutable. *)

type path = {
  nodes : int list;  (** Visited graph nodes, source end first. *)
  edges : int list;  (** Real edge ids along the path. *)
  length : int;
}

val distances : Twmc_channel.Graph.t -> sources:int list -> int array
(** Single multi-source Dijkstra sweep: shortest distance from the source
    set to every node ([max_int] where unreachable).  Used to build Prim
    orders without a quadratic number of point queries. *)

val k_shortest :
  Twmc_channel.Graph.t ->
  k:int ->
  sources:int list ->
  targets:int list ->
  path list
(** At most [k] distinct loopless paths in nondecreasing length order; []
    when [k <= 0], either set is empty or the sets are disconnected.  A
    source that is also a target yields the empty path of length 0.

    The result is a function of the graph and the arguments, fixed by these
    orders:
    - each Dijkstra run pops the least (distance, node), so equal distances
      go to the lower node, and improves a distance only when strictly
      shorter.  A node's predecessor is therefore the first popped node
      that reaches it at its final distance, whatever order a node relaxes
      its neighbours in (a target's virtual-target hop first, then its
      {!Twmc_channel.Graph} slots; the virtual source takes the sources in
      list order);
    - candidate paths are deduplicated by their node sequence, and among
      equal-length candidates the newest is accepted first;
    - the accepted paths are returned stable-sorted by length, so paths of
      equal length keep their acceptance order. *)
