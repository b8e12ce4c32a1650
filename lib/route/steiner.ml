module G = Twmc_channel.Graph

type route = { edges : int list; nodes : int list; length : int }

type alternatives = {
  n_routes : int;
  lengths : int array;
  edge_at : int array;
  edge_ids : int array;
  node_at : int array;
  node_ids : int array;
}

(* One net's enumeration.  Terminals are indexed in Prim order.  The paths
   each level of the depth-first search found are kept back to back in
   [pnodes]/[pedges]: path [p]'s nodes start at [pnodes.(pat.(p))] and its
   edges at the same offset of [pedges], [psize.(p)] nodes and one edge
   fewer; a level's paths are dropped when it returns.  [uses] counts, per
   edge, the paths of the current tree (one per level, [cur]) that cross
   it, and [tree_length] is the length of the edges it counts.  The M best
   routes are kept in slots: [order] lists the [n_kept] slots in use in
   [compare_new]'s order, and slot [r] holds a route of length
   [kept_length.(r)] with its sorted edges and nodes. *)
type state = {
  g : G.t;
  ws : Mshortest.workspace;
  m : int;
  cands : int array array;
  h : int array array;
  mutable budget : int;
  uses : int array;
  mutable tree_length : int;
  mutable pnodes : int array;
  mutable pedges : int array;
  mutable pat : int array;
  mutable psize : int array;
  cur : int array;
  mutable src : int array;
  edge_mark : int array;
  node_mark : int array;
  mutable stamp : int;
  mutable new_edges : int array;
  mutable new_nodes : int array;
  kept_length : int array;
  kept_edges : int array array;
  kept_nodes : int array array;
  kept_ne : int array;
  kept_nn : int array;
  order : int array;
  mutable n_kept : int;
}

(* A copy of [a] with room for at least [n] entries, for an [a] too
   short.  Callers store it only then, so a field keeps its array, and no
   write barrier runs, while it is large enough. *)
let grown a n =
  let len = Array.length a in
  let b = Array.make (Int.max n (2 * len)) 0 in
  for j = 0 to len - 1 do
    b.(j) <- a.(j)
  done;
  b

(* Prim-style terminal order starting from terminal 0: each addition is the
   unconnected terminal closest to the connected set, the first in input
   order among equals.  The graph is undirected, so a terminal's distance
   from the connected set is the least of its own [h] over the connected
   candidates, kept as a running minimum as terminals join. *)
let prim_order cands h =
  let t = Array.length cands in
  let order = Array.make t 0 and taken = Array.make t false in
  let dist = Array.make t max_int in
  let join c =
    taken.(c) <- true;
    for i = 1 to t - 1 do
      if not taken.(i) then
        for j = 0 to Array.length cands.(c) - 1 do
          dist.(i) <- Int.min dist.(i) h.(i).(cands.(c).(j))
        done
    done
  in
  join 0;
  for pos = 1 to t - 1 do
    let choice = ref (-1) in
    for i = 1 to t - 1 do
      if (not taken.(i)) && (!choice < 0 || dist.(i) < dist.(!choice)) then
        choice := i
    done;
    order.(pos) <- !choice;
    join !choice
  done;
  order

let edge_length s e = s.g.G.edges.(e).G.length

let add_path s p =
  let at = s.pat.(p) in
  for j = at to at + s.psize.(p) - 2 do
    let e = s.pedges.(j) in
    s.uses.(e) <- s.uses.(e) + 1;
    if s.uses.(e) = 1 then s.tree_length <- s.tree_length + edge_length s e
  done

let remove_path s p =
  let at = s.pat.(p) in
  for j = at to at + s.psize.(p) - 2 do
    let e = s.pedges.(j) in
    s.uses.(e) <- s.uses.(e) - 1;
    if s.uses.(e) = 0 then s.tree_length <- s.tree_length - edge_length s e
  done

let worst_kept s =
  if s.n_kept < s.m then max_int else s.kept_length.(s.order.(s.n_kept - 1))

(* Lexicographic on int sequences, a proper prefix first: the order
   [Stdlib.compare] gives int lists. *)
let compare_ints a na b nb =
  let n = Int.min na nb in
  let j = ref 0 in
  while !j < n && a.(!j) = b.(!j) do
    incr j
  done;
  if !j < n then Int.compare a.(!j) b.(!j) else Int.compare na nb

(* The new route against kept slot [r]: by length, then edges, then nodes,
   the order of [Stdlib.compare] on the [(length, (edges, nodes))] of their
   list forms. *)
let compare_new s ~length ~ne ~nn r =
  match Int.compare length s.kept_length.(r) with
  | 0 -> (
      match compare_ints s.new_edges ne s.kept_edges.(r) s.kept_ne.(r) with
      | 0 -> compare_ints s.new_nodes nn s.kept_nodes.(r) s.kept_nn.(r)
      | c -> c)
  | c -> c

let sort_prefix (a : int array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref i in
    while !j > 0 && a.(!j - 1) > x do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- x
  done

(* Adds the current tree, of [levels] paths, to the kept routes: a set of
   at most [m] in [compare_new]'s order, so an equal route adds nothing
   and the greatest falls out past [m]. *)
let record s ~levels =
  s.stamp <- s.stamp + 1;
  let st = s.stamp in
  let ne = ref 0 and nn = ref 0 in
  for l = 0 to levels - 1 do
    let p = s.cur.(l) in
    let at = s.pat.(p) and size = s.psize.(p) in
    (* A tree can close cycles, so it may have more edges than nodes; both
       arrays keep one length. *)
    let need = Int.max !ne !nn + size in
    if need > Array.length s.new_nodes then begin
      s.new_edges <- grown s.new_edges need;
      s.new_nodes <- grown s.new_nodes need
    end;
    for j = at to at + size - 1 do
      let v = s.pnodes.(j) in
      if s.node_mark.(v) <> st then begin
        s.node_mark.(v) <- st;
        s.new_nodes.(!nn) <- v;
        incr nn
      end
    done;
    for j = at to at + size - 2 do
      let e = s.pedges.(j) in
      if s.edge_mark.(e) <> st then begin
        s.edge_mark.(e) <- st;
        s.new_edges.(!ne) <- e;
        incr ne
      end
    done
  done;
  let ne = !ne and nn = !nn and length = s.tree_length in
  sort_prefix s.new_edges ne;
  sort_prefix s.new_nodes nn;
  let pos = ref 0 and c = ref 1 in
  while !c > 0 && !pos < s.n_kept do
    c := compare_new s ~length ~ne ~nn s.order.(!pos);
    if !c > 0 then incr pos
  done;
  if !c <> 0 && !pos < s.m then begin
    let slot = if s.n_kept < s.m then s.n_kept else s.order.(s.m - 1) in
    let last = Int.min s.n_kept (s.m - 1) in
    for j = last downto !pos + 1 do
      s.order.(j) <- s.order.(j - 1)
    done;
    s.order.(!pos) <- slot;
    s.n_kept <- last + 1;
    s.kept_length.(slot) <- length;
    let need = Int.max ne nn in
    if need > Array.length s.kept_nodes.(slot) then begin
      s.kept_edges.(slot) <- grown s.kept_edges.(slot) need;
      s.kept_nodes.(slot) <- grown s.kept_nodes.(slot) need
    end;
    for j = 0 to ne - 1 do
      s.kept_edges.(slot).(j) <- s.new_edges.(j)
    done;
    for j = 0 to nn - 1 do
      s.kept_nodes.(slot).(j) <- s.new_nodes.(j)
    done;
    s.kept_ne.(slot) <- ne;
    s.kept_nn.(slot) <- nn
  end

(* The tree's nodes as sources, newest path first: levels [depth - 1] down
   to 0. *)
let tree_sources s ~depth =
  let n = ref 0 in
  for l = depth - 1 downto 0 do
    let p = s.cur.(l) in
    let at = s.pat.(p) and size = s.psize.(p) in
    if !n + size > Array.length s.src then s.src <- grown s.src (!n + size);
    for j = 0 to size - 1 do
      s.src.(!n + j) <- s.pnodes.(at + j)
    done;
    n := !n + size
  done;
  !n

(* Depth-first over the stored alternatives; the tree's nodes are the
   paper's "target nodes" (every node touched so far).  Level [depth]
   connects terminal [depth + 1]; its paths are stored from path index
   [base] and arena offset [fill].  A global expansion budget bounds the
   worst case on high-fanout nets — the search visits alternatives
   shortest-first, so the budget trims only the long tail. *)
let rec grow s ~depth ~base ~fill =
  let term = depth + 1 in
  let n =
    (* Full fan-out at the first level, narrowing with depth; from the
       third terminal on, a single shortest path suffices. *)
    let k = Int.max (if depth >= 2 then 1 else 2) (s.m lsr Int.min depth 8) in
    if depth = 0 then
      Mshortest.k_shortest_in s.ws ~h:s.h.(term) ~k ~sources:s.cands.(0)
        ~n_sources:(Array.length s.cands.(0)) ~targets:s.cands.(term)
    else
      let n_sources = tree_sources s ~depth in
      Mshortest.k_shortest_in s.ws ~h:s.h.(term) ~k ~sources:s.src ~n_sources
        ~targets:s.cands.(term)
  in
  if base + n > Array.length s.pat then begin
    s.pat <- grown s.pat (base + n);
    s.psize <- grown s.psize (base + n)
  end;
  let at = ref fill in
  for q = 0 to n - 1 do
    let size = Mshortest.path_size s.ws q in
    if !at + size > Array.length s.pnodes then begin
      s.pnodes <- grown s.pnodes (!at + size);
      s.pedges <- grown s.pedges (!at + size)
    end;
    Mshortest.copy_path s.ws q ~nodes:s.pnodes ~edges:s.pedges ~at:!at;
    s.pat.(base + q) <- !at;
    s.psize.(base + q) <- size;
    at := !at + size
  done;
  for q = 0 to n - 1 do
    if s.budget > 0 then begin
      s.budget <- s.budget - 1;
      let p = base + q in
      s.cur.(depth) <- p;
      (* Shared edges cost nothing extra, so bound with the tree's
         deduplicated length. *)
      add_path s p;
      if s.tree_length < worst_kept s then
        if term = Array.length s.cands - 1 then record s ~levels:(depth + 1)
        else grow s ~depth:(depth + 1) ~base:(base + n) ~fill:!at;
      remove_path s p
    end
  done

let no_routes =
  { n_routes = 0;
    lengths = [||];
    edge_at = [| 0 |];
    edge_ids = [||];
    node_at = [| 0 |];
    node_ids = [||] }

let enumerate ?(budget_factor = 12) g ~m ~terminals =
  if m <= 0 then invalid_arg "Steiner.routes: m <= 0";
  if budget_factor <= 0 then invalid_arg "Steiner.routes: budget_factor <= 0";
  if List.exists List.is_empty terminals then
    invalid_arg "Steiner.routes: empty terminal candidate list";
  match terminals with
  | [] -> no_routes
  | [ single ] ->
      { n_routes = 1;
        lengths = [| 0 |];
        edge_at = [| 0; 0 |];
        edge_ids = [||];
        node_at = [| 0; 1 |];
        node_ids = [| List.hd single |] }
  | _ ->
      (* One search workspace and one heuristic per terminal serve every
         k-shortest query of this net. *)
      let ws = Mshortest.workspace g in
      let cands = Array.of_list (List.map Array.of_list terminals) in
      let h =
        Array.mapi
          (fun i c -> if i = 0 then [||] else Mshortest.distances ws ~sources:c)
          cands
      in
      let order = prim_order cands h in
      let n = G.n_nodes g and t = Array.length cands in
      let s =
        { g;
          ws;
          m;
          cands = Array.map (fun i -> cands.(i)) order;
          h = Array.map (fun i -> h.(i)) order;
          budget = budget_factor * m;
          uses = Array.make (G.n_edges g) 0;
          tree_length = 0;
          pnodes = Array.make 64 0;
          pedges = Array.make 64 0;
          pat = Array.make 16 0;
          psize = Array.make 16 0;
          cur = Array.make t 0;
          src = Array.make 16 0;
          edge_mark = Array.make (G.n_edges g) 0;
          node_mark = Array.make n 0;
          stamp = 0;
          new_edges = Array.make 16 0;
          new_nodes = Array.make 16 0;
          kept_length = Array.make m 0;
          kept_edges = Array.make m [||];
          kept_nodes = Array.make m [||];
          kept_ne = Array.make m 0;
          kept_nn = Array.make m 0;
          order = Array.make m 0;
          n_kept = 0 }
      in
      grow s ~depth:0 ~base:0 ~fill:0;
      let k = s.n_kept in
      let edge_at = Array.make (k + 1) 0 and node_at = Array.make (k + 1) 0 in
      for r = 0 to k - 1 do
        let slot = s.order.(r) in
        edge_at.(r + 1) <- edge_at.(r) + s.kept_ne.(slot);
        node_at.(r + 1) <- node_at.(r) + s.kept_nn.(slot)
      done;
      let edge_ids = Array.make edge_at.(k) 0 and node_ids = Array.make node_at.(k) 0 in
      for r = 0 to k - 1 do
        let slot = s.order.(r) in
        for j = 0 to s.kept_ne.(slot) - 1 do
          edge_ids.(edge_at.(r) + j) <- s.kept_edges.(slot).(j)
        done;
        for j = 0 to s.kept_nn.(slot) - 1 do
          node_ids.(node_at.(r) + j) <- s.kept_nodes.(slot).(j)
        done
      done;
      { n_routes = k;
        lengths = Array.init k (fun r -> s.kept_length.(s.order.(r)));
        edge_at;
        edge_ids;
        node_at;
        node_ids }

let ints a ~first ~last =
  let rec go j acc = if j < first then acc else go (j - 1) (a.(j) :: acc) in
  go (last - 1) []

let alternative a r =
  { edges = ints a.edge_ids ~first:a.edge_at.(r) ~last:a.edge_at.(r + 1);
    nodes = ints a.node_ids ~first:a.node_at.(r) ~last:a.node_at.(r + 1);
    length = a.lengths.(r) }

let routes ?budget_factor g ~m ~terminals =
  let a = enumerate ?budget_factor g ~m ~terminals in
  List.init a.n_routes (alternative a)
