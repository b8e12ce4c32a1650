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
  let cap = max 1 cap in
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

(* The search runs on an augmented digraph: a virtual source [n] fanning out
   to all sources and a virtual target [n+1] fed by all targets, both with
   zero-length hops, so multi-set queries reduce to single-pair queries.

   One query's scratch.  Every Dijkstra run takes a fresh [stamp]: a node's
   [dist] and [prev] are live only while its [mark] equals the stamp, and a
   ban holds only while its entry does, so nothing is cleared between runs.
   Bans are undirected: [ban_edge] per real edge id, [ban_src] per source
   for the virtual-source hop into it, [ban_tgt] per target for its hop
   into the virtual target. *)
type scratch = {
  g : G.t;
  vsrc : int;
  vtgt : int;
  sources : int array;  (* In query order, duplicates kept. *)
  is_target : bool array;
  dist : int array;
  prev : int array;
  mark : int array;
  ban_node : int array;
  ban_edge : int array;
  ban_src : int array;
  ban_tgt : int array;
  heap : heap;
  mutable stamp : int;
}

let make_scratch g ~sources ~targets =
  let n = G.n_nodes g in
  let is_target = Array.make n false in
  List.iter (fun t -> is_target.(t) <- true) targets;
  { g;
    vsrc = n;
    vtgt = n + 1;
    sources = Array.of_list sources;
    is_target;
    dist = Array.make (n + 2) 0;
    prev = Array.make (n + 2) (-1);
    mark = Array.make (n + 2) 0;
    ban_node = Array.make (n + 2) 0;
    ban_edge = Array.make (G.n_edges g) 0;
    ban_src = Array.make n 0;
    ban_tgt = Array.make n 0;
    heap = heap_create (n + 2);
    stamp = 1 }

let relax s ~from o nd =
  if s.mark.(o) <> s.stamp || nd < s.dist.(o) then begin
    s.mark.(o) <- s.stamp;
    s.dist.(o) <- nd;
    s.prev.(o) <- from;
    heap_push s.heap nd o
  end

(* Dijkstra from [start] to the virtual target under the bans of the
   current stamp; the target's distance, or -1 when it is unreachable or
   farther than [limit].  Pops the least (distance, node), so ties go to
   the lower node.  Relaxation is strict, so no key is pushed twice and
   the heap pops exactly the sequence an ordered set of (distance, node)
   would.  The virtual target needs no node-ban check: bans cover root
   nodes, which precede it on every path. *)
let search s ~start ~limit =
  let g = s.g and h = s.heap and st = s.stamp in
  h.size <- 0;
  s.mark.(start) <- st;
  s.dist.(start) <- 0;
  s.prev.(start) <- -1;
  heap_push h 0 start;
  let found = ref (-1) in
  while !found < 0 && h.size > 0 do
    let d = h.keys.(0) and v = h.vals.(0) in
    heap_pop h;
    if d > limit then h.size <- 0
    else if v = s.vtgt then found := d
    else if d <= s.dist.(v) then
      if v = s.vsrc then
        for j = 0 to Array.length s.sources - 1 do
          let o = s.sources.(j) in
          if s.ban_node.(o) <> st && s.ban_src.(o) <> st then relax s ~from:v o d
        done
      else begin
        if s.is_target.(v) && s.ban_tgt.(v) <> st then relax s ~from:v s.vtgt d;
        for slot = g.G.offsets.(v) to g.G.offsets.(v + 1) - 1 do
          let o = g.G.nbr.(slot) in
          if s.ban_node.(o) <> st && s.ban_edge.(g.G.nbr_edge.(slot)) <> st then
            relax s ~from:v o (d + g.G.nbr_len.(slot))
        done
      end
  done;
  !found

(* The path [search] found, after the first [keep] nodes of [root]: those
   nodes, then start .. virtual target. *)
let walk s ~root ~keep =
  let rec count v acc = if v = -1 then acc else count s.prev.(v) (acc + 1) in
  let len = count s.vtgt 0 in
  let nodes = Array.make (keep + len) 0 in
  Array.blit root 0 nodes 0 keep;
  let v = ref s.vtgt in
  for j = keep + len - 1 downto keep do
    nodes.(j) <- !v;
    v := s.prev.(!v)
  done;
  nodes

(* Per hop of an augmented path: the real edge id, or -1 for the two
   virtual hops. *)
let hop_edges s nodes =
  Array.init
    (Array.length nodes - 1)
    (fun j ->
      let u = nodes.(j) and v = nodes.(j + 1) in
      if u = s.vsrc || v = s.vtgt then -1
      else
        match G.edge_between s.g u v with
        | Some e -> e.G.id
        | None -> invalid_arg "Mshortest: nodes not adjacent")

(* An accepted path with its hop edges and the index of the spur it was
   found from ([dev]): it shares its first [dev + 1] nodes with the path
   that spur deviated from. *)
type accepted = { anodes : int array; hops : int array; alength : int; dev : int }

let accept s anodes alength dev =
  { anodes; hops = hop_edges s anodes; alength; dev }

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

(* Candidates are deduplicated by their full augmented node sequence. *)
module Seen = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  let hash a =
    let h = ref 0 in
    for j = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(j)
    done;
    !h land max_int
end)

let common_prefix a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go j = if j < n && a.(j) = b.(j) then go (j + 1) else j in
  go 0

let k_shortest g ~k ~sources ~targets =
  if k <= 0 || sources = [] || targets = [] then []
  else begin
    let s = make_scratch g ~sources ~targets in
    let first_len = search s ~start:s.vsrc ~limit:max_int in
    if first_len < 0 then []
    else begin
      (* Yen's deviation algorithm over node sequences. *)
      let first = accept s (walk s ~root:[||] ~keep:0) first_len 0 in
      let a = ref [ first ] and n_a = ref 1 in  (* accepted, newest first *)
      let seen = Seen.create 16 in
      Seen.replace seen first.anodes ();
      (* Pending candidates by index.  The queue pops the least length and,
         among equal lengths, the newest candidate. *)
      let cands = ref (Array.make 16 ([||], 0, 0)) and n_cands = ref 0 in
      let queue = heap_create 16 in
      (* The lengths of the [k - n_a] shortest pending candidates,
         ascending.  Each round accepts one pending candidate, so once that
         many are pending, a candidate longer than the last of them can
         never be accepted: spur searches stop at that length and such
         candidates are never made.  The cutoff never rises, so a dropped
         candidate cannot come back, and the accepted paths and their
         order are those of the unbounded search. *)
      let least = Array.make k 0 and n_least = ref 0 in
      let cutoff () =
        if !n_least < k - !n_a then max_int else least.(!n_least - 1)
      in
      let add_candidate nodes len dev =
        if not (Seen.mem seen nodes) then begin
          Seen.replace seen nodes ();
          if !n_cands = Array.length !cands then
            cands := Array.append !cands (Array.make !n_cands ([||], 0, 0));
          !cands.(!n_cands) <- (nodes, len, dev);
          heap_push queue len (- !n_cands);
          incr n_cands;
          if len < cutoff () then begin
            let j = ref (min !n_least (k - !n_a - 1)) in
            while !j > 0 && least.(!j - 1) > len do
              least.(!j) <- least.(!j - 1);
              decr j
            done;
            least.(!j) <- len;
            n_least := min (!n_least + 1) (k - !n_a)
          end
        end
      in
      let continue = ref true in
      while !n_a < k && !continue do
        let prev = List.hd !a in
        let pn = prev.anodes in
        (* An accepted path shares the root of spur [i] when it agrees with
           [prev] on more than [i] leading nodes. *)
        let shared = List.map (fun p -> (p, common_prefix p.anodes pn)) !a in
        (* Lawler's refinement: a spur before [prev.dev] is skipped.  Its
           root is a prefix of the path [prev] deviated from, which carries
           [prev]'s next hop, so its bans are those it had when the last
           earlier path with that root was processed.  The search would
           repeat that one under a cutoff no higher, and find a candidate
           already seen or none. *)
        let root_len = ref 0 in
        for i = 0 to Array.length pn - 2 do
          if i >= prev.dev then begin
            s.stamp <- s.stamp + 1;
            let st = s.stamp in
            (* Ban the next hop of every accepted path sharing this root. *)
            List.iter
              (fun (p, lcp) ->
                if lcp > i then
                  if i = 0 then s.ban_src.(p.anodes.(1)) <- st
                  else if p.anodes.(i + 1) = s.vtgt then
                    s.ban_tgt.(p.anodes.(i)) <- st
                  else s.ban_edge.(p.hops.(i)) <- st)
              shared;
            for j = 0 to i - 1 do
              s.ban_node.(pn.(j)) <- st
            done;
            let limit =
              match cutoff () with c when c = max_int -> c | c -> c - !root_len
            in
            let spur_len = search s ~start:pn.(i) ~limit in
            if spur_len >= 0 then
              add_candidate (walk s ~root:pn ~keep:i) (!root_len + spur_len) i
          end;
          if prev.hops.(i) >= 0 then
            root_len := !root_len + g.G.edges.(prev.hops.(i)).G.length
        done;
        if queue.size = 0 then continue := false
        else begin
          let nodes, len, dev = !cands.(- queue.vals.(0)) in
          heap_pop queue;
          a := accept s nodes len dev :: !a;
          incr n_a;
          Array.blit least 1 least 0 (!n_least - 1);
          decr n_least
        end
      done;
      List.rev_map to_path !a
      |> List.stable_sort (fun p1 p2 -> Stdlib.compare p1.length p2.length)
    end
  end
