module G = Twmc_channel.Graph

type path = { nodes : int list; edges : int list; length : int }

(* A binary min-heap of (key, value) int pairs, ordered by key, then by
   value.  Dijkstra keys are distances and values nodes; the candidate
   queue keys lengths and values negated candidate indices. *)
type heap = {
  mutable size : int;
  mutable keys : int array;
  mutable vals : int array;
}

let heap_create cap =
  let cap = Int.max 1 cap in
  { size = 0; keys = Array.make cap 0; vals = Array.make cap 0 }

let heap_push h k v =
  if h.size = Array.length h.keys then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    h.keys <- grow h.keys;
    h.vals <- grow h.vals
  end;
  let keys = h.keys and vals = h.vals in
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = keys.(p) in
    if k < kp || (k = kp && v < vals.(p)) then begin
      keys.(!i) <- kp;
      vals.(!i) <- vals.(p);
      i := p
    end
    else continue := false
  done;
  keys.(!i) <- k;
  vals.(!i) <- v

(* Drops the minimum; read it first from [keys.(0)] and [vals.(0)]. *)
let heap_pop h =
  let n = h.size - 1 in
  h.size <- n;
  let keys = h.keys and vals = h.vals in
  let k = keys.(n) and v = vals.(n) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c =
        let r = l + 1 in
        if
          r < n
          && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && vals.(r) < vals.(l)))
        then r
        else l
      in
      let kc = keys.(c) in
      if kc < k || (kc = k && vals.(c) < v) then begin
        keys.(!i) <- kc;
        vals.(!i) <- vals.(c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then begin
    keys.(!i) <- k;
    vals.(!i) <- v
  end

(* Candidates are deduplicated by their full augmented node sequence. *)
module Seen = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let j = ref 0 in
    while !j < n && a.(!j) = b.(!j) do
      incr j
    done;
    !j = n

  let hash a =
    let h = ref 0 in
    for j = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(j)
    done;
    !h land max_int
end)

(* An accepted path with its hop edges and the index of the spur it was
   found from ([dev]): it shares its first [dev + 1] nodes with the path
   that spur deviated from. *)
type accepted = { anodes : int array; hops : int array; alength : int; dev : int }

(* The search runs on an augmented digraph: a virtual source [n] fanning out
   to all sources and a virtual target [n+1] fed by all targets, both with
   zero-length hops, so multi-set queries reduce to single-pair queries.

   One workspace serves every query its owner makes on one graph.  Nothing
   in it is cleared between uses: each query, ban set and search pass takes
   a fresh [stamp], and an entry is live only while it holds the stamp of
   its use.  A node is a target while its [target] entry equals [query]; a
   node's [dist] and [prev] are live while its [mark] equals the pass's
   stamp; [settled] holds the A* pass's stamp on the nodes it settled, and
   [tied] on the nodes a second relaxation reached at their current
   distance; a ban holds while its entry equals the spur's ban stamp.
   Bans are undirected: [ban_edge] per real edge id, [ban_src] per source
   for the virtual-source hop into it, [ban_tgt] per target for its hop
   into the virtual target. *)
type workspace = {
  g : G.t;
  vsrc : int;
  vtgt : int;
  mutable sources : int array;
      (* [0 .. n_sources - 1], in query order, duplicates kept. *)
  mutable n_sources : int;
  target : int array;
  mutable query : int;
  dist : int array;
  prev : int array;
  mark : int array;
  settled : int array;
  tied : int array;
  ban_node : int array;
  ban_edge : int array;
  ban_src : int array;
  ban_tgt : int array;
  heap : heap;  (* Both search passes. *)
  queue : heap;  (* Pending candidates. *)
  mutable cand_nodes : int array array;
  mutable cand_len : int array;
  mutable cand_dev : int array;
  mutable least : int array;
  (* A query's accepted paths, oldest first, and per accepted path its
     common-prefix length with the newest one. *)
  mutable accepted : accepted array;
  mutable lcp : int array;
  seen : unit Seen.t;
  mutable stamp : int;
}

let workspace g =
  let n = G.n_nodes g in
  { g;
    vsrc = n;
    vtgt = n + 1;
    sources = Array.make 16 0;
    n_sources = 0;
    target = Array.make n 0;
    query = 0;
    dist = Array.make (n + 2) 0;
    prev = Array.make (n + 2) (-1);
    mark = Array.make (n + 2) 0;
    settled = Array.make (n + 2) 0;
    tied = Array.make (n + 2) 0;
    ban_node = Array.make (n + 2) 0;
    ban_edge = Array.make (G.n_edges g) 0;
    ban_src = Array.make n 0;
    ban_tgt = Array.make n 0;
    heap = heap_create (n + 2);
    queue = heap_create 16;
    cand_nodes = Array.make 16 [||];
    cand_len = Array.make 16 0;
    cand_dev = Array.make 16 0;
    least = Array.make 16 0;
    accepted = [||];
    lcp = Array.make 16 0;
    seen = Seen.create 16;
    stamp = 0 }

let fresh w =
  w.stamp <- w.stamp + 1;
  w.stamp

let is_target w v = w.target.(v) = w.query

let astar_h w h v = if v >= w.vsrc then 0 else h.(v)

let astar_relax w h run ~from o nd =
  if w.mark.(o) <> run || nd < w.dist.(o) then begin
    w.mark.(o) <- run;
    w.dist.(o) <- nd;
    w.prev.(o) <- from;
    w.tied.(o) <- 0;
    heap_push w.heap (nd + astar_h w h o) o
  end
  else if nd = w.dist.(o) then w.tied.(o) <- run

(* Pass 1 of a spur search: A* from [start] to the virtual target under the
   ban stamp [bans], ordered by f = d + h with [h] the unbanned distance
   from each real node to the target set and 0 on the two virtual nodes.
   A ban only removes a hop, so [h] stays a consistent lower bound under
   any bans, and a node settles at its final distance; a node with no path
   to a target ([h] = [max_int]) is never pushed.  Returns the target's
   distance D, or -1 as soon as the least f exceeds [limit] (or nothing is
   left).  After the target pops it keeps settling until the least f
   exceeds D, so the pass's stamp in [settled] ends up on exactly the
   reachable nodes with f <= D.  Each node's [prev] is the node whose
   relaxation first reached its final distance, and [tied] marks the nodes
   a later relaxation reached at that distance too. *)
let astar w ~h ~bans ~start ~limit =
  let g = w.g and hp = w.heap and run = fresh w in
  hp.size <- 0;
  w.mark.(start) <- run;
  w.dist.(start) <- 0;
  w.prev.(start) <- -1;
  heap_push hp (astar_h w h start) start;
  let found = ref (-1) and bound = ref limit in
  while hp.size > 0 do
    let f = hp.keys.(0) and v = hp.vals.(0) in
    heap_pop hp;
    if f > !bound then hp.size <- 0
    else begin
      let d = f - astar_h w h v in
      if d <= w.dist.(v) then begin
        w.settled.(v) <- run;
        if v = w.vtgt then begin
          found := d;
          bound := d
        end
        else if v = w.vsrc then
          for j = 0 to w.n_sources - 1 do
            let o = w.sources.(j) in
            if w.ban_node.(o) <> bans && w.ban_src.(o) <> bans && h.(o) <> max_int
            then astar_relax w h run ~from:v o d
          done
        else begin
          if is_target w v && w.ban_tgt.(v) <> bans then
            astar_relax w h run ~from:v w.vtgt d;
          for slot = g.G.offsets.(v) to g.G.offsets.(v + 1) - 1 do
            let o = g.G.nbr.(slot) in
            if
              w.ban_node.(o) <> bans
              && w.ban_edge.(g.G.nbr_edge.(slot)) <> bans
              && h.(o) <> max_int
            then astar_relax w h run ~from:v o (d + g.G.nbr_len.(slot))
          done
        end
      end
    end
  done;
  !found

let dijkstra_relax w within run ~from o nd =
  if w.settled.(o) = within && (w.mark.(o) <> run || nd < w.dist.(o)) then begin
    w.mark.(o) <- run;
    w.dist.(o) <- nd;
    w.prev.(o) <- from;
    heap_push w.heap nd o
  end

(* Pass 2: Dijkstra from [start] to the virtual target under the same bans,
   relaxing only nodes that carry the A* pass's stamp [within].  Pops the
   least (distance, node), so ties go to the lower node.  Relaxation is
   strict, so no key is pushed twice and the heap pops exactly the sequence
   an ordered set of (distance, node) would: a node's [prev] is the first
   popped in-neighbour u with d(u) + len(u, v) = d(v), a tight one.

   Why the restriction changes nothing.  For a tight in-neighbour u of v,
   consistency of h gives f(u) = d(u) + h(u) <= d(u) + len(u, v) + h(v) =
   f(v); so every node on a shortest path to a node with f <= D has f <= D
   too.  The marked set is therefore closed under tight in-neighbours and
   its distances are those of the whole graph: the restricted search pops
   the marked nodes in the same order, and sets the same [prev] on them, as
   the unrestricted one, up to the virtual target at D.  A marked node is
   never banned, so only the hop bans need checking. *)
let dijkstra w ~bans ~within ~start =
  let g = w.g and hp = w.heap and run = fresh w in
  hp.size <- 0;
  w.mark.(start) <- run;
  w.dist.(start) <- 0;
  w.prev.(start) <- -1;
  heap_push hp 0 start;
  let continue = ref true in
  while !continue && hp.size > 0 do
    let d = hp.keys.(0) and v = hp.vals.(0) in
    heap_pop hp;
    if v = w.vtgt then continue := false
    else if d <= w.dist.(v) then
      if v = w.vsrc then
        for j = 0 to w.n_sources - 1 do
          let o = w.sources.(j) in
          if w.ban_src.(o) <> bans then dijkstra_relax w within run ~from:v o d
        done
      else begin
        if is_target w v && w.ban_tgt.(v) <> bans then
          dijkstra_relax w within run ~from:v w.vtgt d;
        for slot = g.G.offsets.(v) to g.G.offsets.(v + 1) - 1 do
          if w.ban_edge.(g.G.nbr_edge.(slot)) <> bans then
            dijkstra_relax w within run ~from:v g.G.nbr.(slot)
              (d + g.G.nbr_len.(slot))
        done
      end
  done

(* Whether no node on the A* pass [run]'s path back from the virtual
   target to [start] is [tied]. *)
let rec untied w ~run ~start v =
  v = start || (w.tied.(v) <> run && untied w ~run ~start w.prev.(v))

(* A spur search: the virtual target's distance from [start] under the
   bans, or -1 when it is unreachable or farther than [limit]; when found,
   [prev] walks back from the virtual target along the path the plain
   Dijkstra search would have found.

   Pass 2 is needed only when a node on the A* path has a choice.  Every
   tight in-neighbour of a node with f <= D has f <= D too, so the A*
   pass settles it and relaxes the node from it.  A node on the path that
   is not [tied] was therefore reached at its final distance by one
   relaxation only: it has one tight in-neighbour, which is the first
   popped one in any order, so Dijkstra's [prev] on it is the A* pass's.
   When no node on the path is [tied], the A* pass's [prev] already walks
   the Dijkstra path. *)
let search w ~h ~bans ~start ~limit =
  let d = astar w ~h ~bans ~start ~limit in
  if d >= 0 && not (untied w ~run:w.stamp ~start w.vtgt) then
    dijkstra w ~bans ~within:w.stamp ~start;
  d

(* The path [search] found, after the first [keep] nodes of [root]: those
   nodes, then start .. virtual target. *)
let walk w ~root ~keep =
  let rec count v acc = if v = -1 then acc else count w.prev.(v) (acc + 1) in
  let len = count w.vtgt 0 in
  let nodes = Array.make (keep + len) 0 in
  for j = 0 to keep - 1 do
    nodes.(j) <- root.(j)
  done;
  let v = ref w.vtgt in
  for j = keep + len - 1 downto keep do
    nodes.(j) <- !v;
    v := w.prev.(!v)
  done;
  nodes

(* Per hop of an augmented path: the real edge id, or -1 for the two
   virtual hops. *)
let hop_edges w nodes =
  Array.init
    (Array.length nodes - 1)
    (fun j ->
      let u = nodes.(j) and v = nodes.(j + 1) in
      if u = w.vsrc || v = w.vtgt then -1
      else
        match G.edge_between w.g u v with
        | Some e -> e.G.id
        | None -> invalid_arg "Mshortest: nodes not adjacent")

let accept w anodes alength dev =
  { anodes; hops = hop_edges w anodes; alength; dev }

let to_path a =
  let last = Array.length a.anodes - 2 in
  { nodes = Array.to_list (Array.sub a.anodes 1 last);
    edges = Array.to_list (Array.sub a.hops 1 (last - 1));
    length = a.alength }

let distances g ~sources =
  let n = G.n_nodes g in
  let dist = Array.make n max_int in
  let h = heap_create n in
  List.iter
    (fun s ->
      if dist.(s) <> 0 then begin
        dist.(s) <- 0;
        heap_push h 0 s
      end)
    sources;
  while h.size > 0 do
    let d = h.keys.(0) and v = h.vals.(0) in
    heap_pop h;
    if d <= dist.(v) then
      for slot = g.G.offsets.(v) to g.G.offsets.(v + 1) - 1 do
        let o = g.G.nbr.(slot) in
        let nd = d + g.G.nbr_len.(slot) in
        if nd < dist.(o) then begin
          dist.(o) <- nd;
          heap_push h nd o
        end
      done
  done;
  dist

let common_prefix a b =
  let n = Int.min (Array.length a) (Array.length b) in
  let rec go j = if j < n && a.(j) = b.(j) then go (j + 1) else j in
  go 0

(* Grows [a] to hold at least [n] entries, keeping its contents. *)
let ensure a n fill =
  if n <= Array.length a then a
  else Array.append a (Array.make (Int.max n (Array.length a)) fill)

let k_shortest_in w ~h ~k ~sources ~targets =
  if k <= 0 || List.is_empty sources || List.is_empty targets then []
  else begin
    let g = w.g in
    w.query <- fresh w;
    List.iter (fun t -> w.target.(t) <- w.query) targets;
    w.n_sources <- List.length sources;
    w.sources <- ensure w.sources w.n_sources 0;
    List.iteri (fun j v -> w.sources.(j) <- v) sources;
    let first_len = search w ~h ~bans:(fresh w) ~start:w.vsrc ~limit:max_int in
    if first_len < 0 then []
    else begin
      (* Yen's deviation algorithm over node sequences. *)
      let first = accept w (walk w ~root:[||] ~keep:0) first_len 0 in
      w.accepted <- ensure w.accepted k first;
      w.lcp <- ensure w.lcp k 0;
      let accepted = w.accepted and lcp = w.lcp in
      accepted.(0) <- first;
      let n_a = ref 1 in
      Seen.clear w.seen;
      Seen.replace w.seen first.anodes ();
      (* Pending candidates by index.  The queue pops the least length and,
         among equal lengths, the newest candidate. *)
      let n_cands = ref 0 and queue = w.queue in
      queue.size <- 0;
      (* The lengths of the [k - n_a] shortest pending candidates,
         ascending.  Each round accepts one pending candidate, so once that
         many are pending, a candidate longer than the last of them can
         never be accepted: spur searches stop at that length and such
         candidates are never made.  The cutoff never rises, so a dropped
         candidate cannot come back, and the accepted paths and their
         order are those of the unbounded search. *)
      w.least <- ensure w.least k 0;
      let least = w.least and n_least = ref 0 in
      let cutoff () =
        if !n_least < k - !n_a then max_int else least.(!n_least - 1)
      in
      let add_candidate nodes len dev =
        (* One hash per candidate: [replace] adds a binding only for a node
           sequence not seen before. *)
        let seen = Seen.length w.seen in
        Seen.replace w.seen nodes ();
        if Seen.length w.seen > seen then begin
          let c = !n_cands in
          w.cand_nodes <- ensure w.cand_nodes (c + 1) [||];
          w.cand_len <- ensure w.cand_len (c + 1) 0;
          w.cand_dev <- ensure w.cand_dev (c + 1) 0;
          w.cand_nodes.(c) <- nodes;
          w.cand_len.(c) <- len;
          w.cand_dev.(c) <- dev;
          heap_push queue len (-c);
          incr n_cands;
          if len < cutoff () then begin
            let j = ref (Int.min !n_least (k - !n_a - 1)) in
            while !j > 0 && least.(!j - 1) > len do
              least.(!j) <- least.(!j - 1);
              decr j
            done;
            least.(!j) <- len;
            n_least := Int.min (!n_least + 1) (k - !n_a)
          end
        end
      in
      let continue = ref true in
      while !n_a < k && !continue do
        let prev = accepted.(!n_a - 1) in
        let pn = prev.anodes in
        (* An accepted path shares the root of spur [i] when it agrees with
           [prev] on more than [i] leading nodes. *)
        for q = 0 to !n_a - 1 do
          lcp.(q) <- common_prefix accepted.(q).anodes pn
        done;
        (* Lawler's refinement: a spur before [prev.dev] is skipped.  Its
           root is a prefix of the path [prev] deviated from, which carries
           [prev]'s next hop, so its bans are those it had when the last
           earlier path with that root was processed.  The search would
           repeat that one under a cutoff no higher, and find a candidate
           already seen or none. *)
        let root_len = ref 0 in
        for i = 0 to Array.length pn - 2 do
          if i >= prev.dev then begin
            let bans = fresh w in
            (* Ban the next hop of every accepted path sharing this root. *)
            for q = 0 to !n_a - 1 do
              if lcp.(q) > i then begin
                let p = accepted.(q) in
                if i = 0 then w.ban_src.(p.anodes.(1)) <- bans
                else if p.anodes.(i + 1) = w.vtgt then
                  w.ban_tgt.(p.anodes.(i)) <- bans
                else w.ban_edge.(p.hops.(i)) <- bans
              end
            done;
            for j = 0 to i - 1 do
              w.ban_node.(pn.(j)) <- bans
            done;
            let limit =
              match cutoff () with c when c = max_int -> c | c -> c - !root_len
            in
            let spur_len = search w ~h ~bans ~start:pn.(i) ~limit in
            if spur_len >= 0 then
              add_candidate (walk w ~root:pn ~keep:i) (!root_len + spur_len) i
          end;
          if prev.hops.(i) >= 0 then
            root_len := !root_len + g.G.edges.(prev.hops.(i)).G.length
        done;
        if queue.size = 0 then continue := false
        else begin
          let c = - queue.vals.(0) in
          heap_pop queue;
          accepted.(!n_a) <-
            accept w w.cand_nodes.(c) w.cand_len.(c) w.cand_dev.(c);
          incr n_a;
          for j = 0 to !n_least - 2 do
            least.(j) <- least.(j + 1)
          done;
          decr n_least
        end
      done;
      List.init !n_a (fun q -> to_path accepted.(q))
      |> List.stable_sort (fun p1 p2 -> Int.compare p1.length p2.length)
    end
  end

let k_shortest g ~k ~sources ~targets =
  if k <= 0 || List.is_empty sources || List.is_empty targets then []
  else
    k_shortest_in (workspace g) ~h:(distances g ~sources:targets) ~k ~sources
      ~targets
