(** Phase one of the global router (Sec 4.2.1): enumerate the approximately
    M shortest Steiner routes of a multi-pin net on the channel graph.

    The paper's generalization of Lawler's procedure: terminals are added in
    an order essentially given by Prim's minimum-spanning-tree algorithm;
    each addition generates (and stores) the M shortest paths from the
    already-interconnected node set to the next terminal's candidate nodes
    (electrically-equivalent pins contribute several candidates); the
    recursion explores the stored alternatives and retains the overall M
    shortest complete routes.  Branch-and-bound pruning against the current
    M-th best total keeps the enumeration tractable; for nets of fewer than
    20 pins the minimum-Steiner-length route is nearly always among the M
    alternatives.

    One call is one net's enumeration: it allocates one
    {!Mshortest.workspace} and, for every terminal but the first, the
    unbanned distance to that terminal's candidates, which both orders the
    terminals and bounds every path search that targets it; both are
    reused across all its k-shortest queries.  The search keeps its paths,
    the tree's edge counts and the kept routes in flat arrays.  Calls share
    nothing mutable, so nets can be enumerated on different domains. *)

type route = {
  edges : int list;  (** Sorted unique edge ids of the route tree. *)
  nodes : int list;  (** Sorted unique nodes covered. *)
  length : int;  (** Sum of the unique edges' lengths. *)
}

type alternatives = {
  n_routes : int;
  lengths : int array;  (** Per route. *)
  edge_at : int array;
      (** [n_routes + 1] offsets: route [r]'s edges are [edge_ids.(edge_at.(r))]
          to [edge_ids.(edge_at.(r + 1) - 1)], ascending. *)
  edge_ids : int array;
  node_at : int array;  (** The same for [node_ids]. *)
  node_ids : int array;
}
(** A net's routes, shortest first, in flat arrays: route [r] is
    [alternative a r]. *)

val no_routes : alternatives
(** The alternatives of a net that has none. *)

val enumerate :
  ?budget_factor:int ->
  Twmc_channel.Graph.t ->
  m:int ->
  terminals:int list list ->
  alternatives
(** [enumerate g ~m ~terminals] — each terminal is a nonempty
    candidate-node list.  Returns up to [m] distinct routes, shortest
    first, ties in the order of [Stdlib.compare] on their [(edges, nodes)];
    none when some terminal cannot be reached.  A single-terminal net
    yields one empty route.  [budget_factor] (default 12) bounds the
    enumeration at [budget_factor·m] expansions per net — lower it to
    trade route diversity for speed. *)

val alternative : alternatives -> int -> route
(** Route [r] of a net's alternatives, as lists. *)

val routes :
  ?budget_factor:int ->
  Twmc_channel.Graph.t ->
  m:int ->
  terminals:int list list ->
  route list
(** {!enumerate}'s routes as lists. *)
