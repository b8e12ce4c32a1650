(** M-shortest loopless paths between node sets on the channel graph.

    The paper uses Lawler's M-shortest-path procedure for two-pin nets
    (Sec 4.2.1); this implements the equivalent deviation algorithm (Yen's),
    generalized to source {e sets} and target {e sets} via zero-length
    virtual terminals — which is also what makes electrically-equivalent
    pins free to the router.

    Both searches run on the graph's compressed neighbour slots with a
    binary heap of single ints, each a key shifted over a node id.  A path
    query's scratch, candidates included, lives in a {!workspace} that its
    owner reuses across queries; calls that use different workspaces share
    nothing mutable, so concurrent calls on one graph are safe as long as no
    workspace is shared between domains.

    Each spur search of a path query makes two passes over the graph:
    - an A* pass under the spur's bans, ordered by f = d + h, where h is
      the unbanned distance to the target set (a ban only removes a hop, so
      h stays consistent under any bans; a node with no path to a target
      is never pushed).  It finds the target's distance D, or gives up as
      soon as the least f exceeds the search's cutoff, so a search that
      finds nothing ends in this pass.  Once the target pops it keeps
      settling nodes until the least f exceeds D, and marks every node it
      settles; it never pushes an entry whose f exceeds its current bound
      (the cutoff, then D), which could not pop before it ends;
    - a Dijkstra pass restricted to the marked nodes, which sets the
      predecessors the path is read from.  A tight in-neighbour u of a
      node v (d(u) + len(u, v) = d(v)) has f(u) <= f(v), so the marked set
      is closed under tight in-neighbours and keeps the whole graph's
      distances: the restricted pass pops the marked nodes in the same
      order, and sets the same predecessors, as an unrestricted Dijkstra.
      Rebuilding predecessors from distances alone (say, as the least
      (distance, node) tight neighbour) would not be exact: zero-length
      edges join regions whose centres coincide, and on them that rule can
      close a cycle.

    The Dijkstra pass runs only when it can matter: when some node on the
    path the A* pass found was reached at its final distance from two
    in-neighbours.  Otherwise every node on that path has a single tight
    in-neighbour, the A* pass settled it, and Dijkstra would pick it too.
    Each relaxation records the edge it crossed with the predecessor, so a
    path's edges are read off with its nodes. *)

type path = {
  nodes : int list;  (** Visited graph nodes, source end first. *)
  edges : int list;  (** Real edge ids along the path. *)
  length : int;
}

type workspace
(** Every array a path query needs, sized by one graph: node and edge
    stamps, the heap, the source buffer and the candidate store.  Reused
    across queries through stamps, so nothing is cleared or reallocated
    between them.  Not safe to share between domains. *)

val workspace : Twmc_channel.Graph.t -> workspace
(** Raises [Invalid_argument], naming the sum, when the graph's edge
    lengths sum to more than a heap key can hold above its node ids: three
    times that sum must fit in [max_int] shifted right by the bits of the
    node count plus two. *)

val distances : workspace -> sources:int array -> int array
(** Single multi-source Dijkstra sweep on the workspace's graph: shortest
    distance from the source set to every node ([max_int] where
    unreachable).  Used as the searches' lower bound and to build Prim
    orders. *)

val k_shortest_in :
  workspace ->
  h:int array ->
  k:int ->
  sources:int array ->
  n_sources:int ->
  targets:int array ->
  int
(** {!k_shortest} on the workspace's graph, from the first [n_sources]
    entries of [sources]: returns how many paths it found, and
    {!path_size} and {!copy_path} read them, shortest first, until the
    next query on the workspace.  [h] must be
    [distances w ~sources:targets] for the same targets (it is the
    searches' lower bound, so any other array can give wrong paths); a
    caller that queries one target set many times computes it once. *)

val path_size : workspace -> int -> int
(** How many graph nodes path [q] of the last query visits (at least 1). *)

val copy_path : workspace -> int -> nodes:int array -> edges:int array -> at:int -> unit
(** [copy_path w q ~nodes ~edges ~at] writes path [q]'s nodes, source end
    first, to [nodes.(at)] onwards, and its [path_size w q - 1] edge ids,
    in path order, to [edges.(at)] onwards. *)

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
      equal length keep their acceptance order.

    Builds a fresh workspace and heuristic; see {!k_shortest_in} to reuse
    them. *)
