module G = Twmc_channel.Graph

type path = { nodes : int list; edges : int list; length : int }

(* The search runs on an augmented digraph: a virtual source [n] fanning out
   to all sources and a virtual target [n+1] fed by all targets, both with
   zero-length hops, so multi-set queries reduce to single-pair queries.

   One workspace serves every query its owner makes on one graph.  Nothing
   in it is cleared between uses: each query, ban set and search pass takes
   a fresh [stamp], and an entry is live only while it holds the stamp of
   its use.  A node is a source (target) while its [source] ([target])
   entry equals [query]; a node's [dist], [prev] and [hop] are live while
   its [mark] equals the pass's stamp; [settled] holds the A* pass's stamp
   on the nodes it settled, and [tied] on the nodes a second relaxation
   reached at their current distance; a ban holds while its entry equals
   the spur's ban stamp.  Bans are undirected: [ban_edge] per real edge id,
   [ban_src] per source for the virtual-source hop into it, [ban_tgt] per
   target for its hop into the virtual target.

   A heap entry is one int, [key lsl bits lor node]: [bits] holds every
   node id, so the int order is the order of (key, node) pairs.

   Yen's candidates of the current query are stored back to back: candidate
   [c]'s augmented nodes are [cnodes.(cfirst.(c))] onwards, [ccount.(c)] of
   them, and at the same offsets [chops] holds the hop from each node to the
   next (a real edge id, or -1 for the two virtual hops).  [slot_query] and
   [slot_cand] are an open-addressing set of the query's candidates by node
   sequence, a slot being full while it holds the query's stamp.  [pending]
   lists the candidates that can still be accepted, [accepted] the accepted
   ones, both as candidate ids. *)
type workspace = {
  g : G.t;
  vsrc : int;
  vtgt : int;
  bits : int;
  mutable sources : int array;
      (* [0 .. n_sources - 1], in query order, first occurrences only. *)
  mutable n_sources : int;
  source : int array;
  target : int array;
  mutable query : int;
  dist : int array;
  prev : int array;
  hop : int array;
  mark : int array;
  settled : int array;
  tied : int array;
  ban_node : int array;
  ban_edge : int array;
  ban_src : int array;
  ban_tgt : int array;
  mutable heap : int array;
  mutable size : int;
  mutable cnodes : int array;
  mutable chops : int array;
  mutable fill : int;
  mutable cfirst : int array;
  mutable ccount : int array;
  mutable clength : int array;
  mutable cdev : int array;
  mutable chash : int array;
  mutable n_cands : int;
  mutable slot_query : int array;
  mutable slot_cand : int array;
  mutable pending : int array;
  mutable n_pending : int;
  mutable accepted : int array;
  mutable n_accepted : int;
  mutable lcp : int array;
  mutable stamp : int;
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

(* The width of a heap entry's node field, and the check that every key
   fits above it.  A search key is at most 3 S, with S the sum of the edge
   lengths: a settled distance is the length of a simple path (<= S), one
   more hop adds at most S, and the bound [h] is another shortest distance
   (<= S).  Candidate and tree lengths are lengths of simple paths and
   edge sets, so at most S. *)
let key_bits g =
  let n = G.n_nodes g in
  let bits = ref 1 in
  while 1 lsl !bits < n + 2 do
    incr bits
  done;
  let room = (max_int lsr !bits) / 3 in
  let sum = ref 0 in
  Array.iter
    (fun (e : G.edge) ->
      if e.G.length > max_int - !sum then
        invalid_arg
          "Mshortest.workspace: the edge lengths sum to more than max_int";
      sum := !sum + e.G.length)
    g.G.edges;
  if !sum > room then
    invalid_arg
      (Printf.sprintf
         "Mshortest.workspace: the edge lengths sum to %d, over the %d a \
          search key leaves room for on %d nodes"
         !sum room n);
  !bits

let workspace g =
  let n = G.n_nodes g in
  { g;
    vsrc = n;
    vtgt = n + 1;
    bits = key_bits g;
    sources = Array.make 16 0;
    n_sources = 0;
    source = Array.make n 0;
    target = Array.make n 0;
    query = 0;
    dist = Array.make (n + 2) 0;
    prev = Array.make (n + 2) (-1);
    hop = Array.make (n + 2) (-1);
    mark = Array.make (n + 2) 0;
    settled = Array.make (n + 2) 0;
    tied = Array.make (n + 2) 0;
    ban_node = Array.make (n + 2) 0;
    ban_edge = Array.make (G.n_edges g) 0;
    ban_src = Array.make n 0;
    ban_tgt = Array.make n 0;
    heap = Array.make (n + 2) 0;
    size = 0;
    cnodes = Array.make 64 0;
    chops = Array.make 64 0;
    fill = 0;
    cfirst = Array.make 16 0;
    ccount = Array.make 16 0;
    clength = Array.make 16 0;
    cdev = Array.make 16 0;
    chash = Array.make 16 0;
    n_cands = 0;
    slot_query = Array.make 32 0;
    slot_cand = Array.make 32 0;
    pending = Array.make 16 0;
    n_pending = 0;
    accepted = Array.make 16 0;
    n_accepted = 0;
    lcp = Array.make 16 0;
    stamp = 0 }

let fresh w =
  w.stamp <- w.stamp + 1;
  w.stamp

(* A binary min-heap of packed entries. *)
let push w x =
  if w.size = Array.length w.heap then w.heap <- grown w.heap (w.size + 1);
  let a = w.heap in
  let i = ref w.size in
  w.size <- w.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let y = a.(p) in
    if x < y then begin
      a.(!i) <- y;
      i := p
    end
    else continue := false
  done;
  a.(!i) <- x

(* Removes and returns the least entry of a nonempty heap. *)
let pop w =
  let a = w.heap in
  let top = a.(0) in
  let n = w.size - 1 in
  w.size <- n;
  if n > 0 then begin
    let x = a.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c = if r < n && a.(r) < a.(l) then r else l in
        let y = a.(c) in
        if y < x then begin
          a.(!i) <- y;
          i := c
        end
        else continue := false
      end
    done;
    a.(!i) <- x
  end;
  top

(* The A* relaxation of [o], reached from [from] over [hop] at distance
   [nd] with f = [f]; the slot loop of [astar] carries a copy inline. *)
let astar_relax w run ~bound ~from ~hop o nd f =
  if w.mark.(o) <> run || nd < w.dist.(o) then begin
    if f <= bound then begin
      w.mark.(o) <- run;
      w.dist.(o) <- nd;
      w.prev.(o) <- from;
      w.hop.(o) <- hop;
      w.tied.(o) <- 0;
      push w ((f lsl w.bits) lor o)
    end
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
   reachable nodes with f <= D.  Each node's [prev] and [hop] are the node
   and hop whose relaxation first reached its final distance, and [tied]
   marks the nodes a later relaxation reached at that distance too.

   No entry is pushed whose f exceeds the current bound ([limit], then D).
   The bound only falls, so such an entry could never be popped before the
   search ends; and the relaxations skipped with it are the ones that do
   not reach their node at its final distance, or reach a node that never
   settles, so every settled node gets the [dist], [prev], [hop] and [tied]
   it would get with the push. *)
let astar w ~h ~bans ~start ~limit =
  let h_start = if start >= w.vsrc then 0 else h.(start) in
  if h_start = max_int then -1
  else begin
    let g = w.g and run = fresh w in
    let bits = w.bits and vsrc = w.vsrc and vtgt = w.vtgt in
    let mask = (1 lsl bits) - 1 in
    let dist = w.dist and prev = w.prev and hop = w.hop and mark = w.mark in
    let tied = w.tied and ban_node = w.ban_node and ban_edge = w.ban_edge in
    let offsets = g.G.offsets and nbr = g.G.nbr in
    let nbr_edge = g.G.nbr_edge and nbr_len = g.G.nbr_len in
    w.size <- 0;
    mark.(start) <- run;
    dist.(start) <- 0;
    prev.(start) <- -1;
    hop.(start) <- -1;
    push w ((h_start lsl bits) lor start);
    let found = ref (-1) and bound = ref limit in
    while w.size > 0 do
      let x = pop w in
      let f = x lsr bits and v = x land mask in
      if f > !bound then w.size <- 0
      else begin
        let d = if v >= vsrc then f else f - h.(v) in
        if d <= dist.(v) then begin
          w.settled.(v) <- run;
          if v = vtgt then begin
            found := d;
            bound := d
          end
          else if v = vsrc then
            for j = 0 to w.n_sources - 1 do
              let o = w.sources.(j) in
              if ban_node.(o) <> bans && w.ban_src.(o) <> bans && h.(o) <> max_int
              then astar_relax w run ~bound:!bound ~from:v ~hop:(-1) o d (d + h.(o))
            done
          else begin
            if w.target.(v) = w.query && w.ban_tgt.(v) <> bans then
              astar_relax w run ~bound:!bound ~from:v ~hop:(-1) vtgt d d;
            for slot = offsets.(v) to offsets.(v + 1) - 1 do
              let o = nbr.(slot) and e = nbr_edge.(slot) in
              if ban_node.(o) <> bans && ban_edge.(e) <> bans then begin
                let ho = h.(o) in
                if ho <> max_int then begin
                  let nd = d + nbr_len.(slot) in
                  if mark.(o) <> run || nd < dist.(o) then begin
                    let fo = nd + ho in
                    if fo <= !bound then begin
                      mark.(o) <- run;
                      dist.(o) <- nd;
                      prev.(o) <- v;
                      hop.(o) <- e;
                      tied.(o) <- 0;
                      push w ((fo lsl bits) lor o)
                    end
                  end
                  else if nd = dist.(o) then tied.(o) <- run
                end
              end
            done
          end
        end
      end
    done;
    !found
  end

(* The Dijkstra relaxation; the slot loop of [dijkstra] carries a copy
   inline. *)
let dijkstra_relax w within run ~from ~hop o nd =
  if w.settled.(o) = within && (w.mark.(o) <> run || nd < w.dist.(o)) then begin
    w.mark.(o) <- run;
    w.dist.(o) <- nd;
    w.prev.(o) <- from;
    w.hop.(o) <- hop;
    push w ((nd lsl w.bits) lor o)
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
  let g = w.g and run = fresh w in
  let bits = w.bits in
  let mask = (1 lsl bits) - 1 in
  let dist = w.dist and prev = w.prev and hop = w.hop and mark = w.mark in
  let settled = w.settled and ban_edge = w.ban_edge in
  let offsets = g.G.offsets and nbr = g.G.nbr in
  let nbr_edge = g.G.nbr_edge and nbr_len = g.G.nbr_len in
  w.size <- 0;
  mark.(start) <- run;
  dist.(start) <- 0;
  prev.(start) <- -1;
  hop.(start) <- -1;
  push w start;
  let continue = ref true in
  while !continue && w.size > 0 do
    let x = pop w in
    let d = x lsr bits and v = x land mask in
    if v = w.vtgt then continue := false
    else if d <= dist.(v) then
      if v = w.vsrc then
        for j = 0 to w.n_sources - 1 do
          let o = w.sources.(j) in
          if w.ban_src.(o) <> bans then
            dijkstra_relax w within run ~from:v ~hop:(-1) o d
        done
      else begin
        if w.target.(v) = w.query && w.ban_tgt.(v) <> bans then
          dijkstra_relax w within run ~from:v ~hop:(-1) w.vtgt d;
        for slot = offsets.(v) to offsets.(v + 1) - 1 do
          let o = nbr.(slot) and e = nbr_edge.(slot) in
          if ban_edge.(e) <> bans && settled.(o) = within then begin
            let nd = d + nbr_len.(slot) in
            if mark.(o) <> run || nd < dist.(o) then begin
              mark.(o) <- run;
              dist.(o) <- nd;
              prev.(o) <- v;
              hop.(o) <- e;
              push w ((nd lsl bits) lor o)
            end
          end
        done
      end
  done

(* Whether no node on the A* pass [run]'s path back from the virtual
   target to [start] is [tied]. *)
let rec untied w ~run ~start v =
  v = start || (w.tied.(v) <> run && untied w ~run ~start w.prev.(v))

(* A spur search: the virtual target's distance from [start] under the
   bans, or -1 when it is unreachable or farther than [limit]; when found,
   [prev] and [hop] walk back from the virtual target along the path the
   plain Dijkstra search would have found.

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

(* How many leading nodes candidates [a] and [b] share. *)
let common_prefix w a b =
  let n = Int.min w.ccount.(a) w.ccount.(b) in
  let fa = w.cfirst.(a) and fb = w.cfirst.(b) and nodes = w.cnodes in
  let j = ref 0 in
  while !j < n && nodes.(fa + !j) = nodes.(fb + !j) do
    incr j
  done;
  !j

let same_nodes w a b =
  w.ccount.(a) = w.ccount.(b) && common_prefix w a b = w.ccount.(a)

(* Adds candidate [c], known to be new, to the query's set. *)
let slot_insert w c =
  let mask = Array.length w.slot_query - 1 in
  let i = ref (w.chash.(c) land mask) in
  while w.slot_query.(!i) = w.query do
    i := (!i + 1) land mask
  done;
  w.slot_query.(!i) <- w.query;
  w.slot_cand.(!i) <- c

(* Whether candidate [c] visits the nodes of an earlier candidate of the
   query; when it does not, it joins the set.  The table is kept at most
   half full, doubling (and re-adding the query's candidates) as needed. *)
let seen_before w c =
  if 2 * (c + 1) > Array.length w.slot_query then begin
    let size = 2 * Array.length w.slot_query in
    w.slot_query <- Array.make size 0;
    w.slot_cand <- Array.make size 0;
    for d = 0 to c - 1 do
      slot_insert w d
    done
  end;
  let mask = Array.length w.slot_query - 1 in
  let hash = w.chash.(c) in
  let i = ref (hash land mask) and found = ref false in
  while (not !found) && w.slot_query.(!i) = w.query do
    let d = w.slot_cand.(!i) in
    if w.chash.(d) = hash && same_nodes w d c then found := true
    else i := (!i + 1) land mask
  done;
  if not !found then begin
    w.slot_query.(!i) <- w.query;
    w.slot_cand.(!i) <- c
  end;
  !found

(* Stores the path [search] found as the next candidate: the first [keep]
   nodes of candidate [root], then start .. virtual target.  Returns its id,
   or -1 (storing nothing) when an earlier candidate of the query visits
   the same nodes. *)
let store w ~root ~keep ~len ~dev =
  let total = ref keep and v = ref w.vtgt in
  while !v >= 0 do
    incr total;
    v := w.prev.(!v)
  done;
  let total = !total and c = w.n_cands and at = w.fill in
  if at + total > Array.length w.cnodes then begin
    w.cnodes <- grown w.cnodes (at + total);
    w.chops <- grown w.chops (at + total)
  end;
  let nodes = w.cnodes and hops = w.chops in
  let r = w.cfirst.(root) in
  for j = 0 to keep - 1 do
    nodes.(at + j) <- nodes.(r + j);
    hops.(at + j) <- hops.(r + j)
  done;
  let v = ref w.vtgt in
  for j = total - 1 downto keep do
    nodes.(at + j) <- !v;
    if j > keep then hops.(at + j - 1) <- w.hop.(!v);
    v := w.prev.(!v)
  done;
  let hash = ref 0 in
  for j = at to at + total - 1 do
    hash := (!hash * 65599) + nodes.(j)
  done;
  if c = Array.length w.cfirst then begin
    w.cfirst <- grown w.cfirst (c + 1);
    w.ccount <- grown w.ccount (c + 1);
    w.clength <- grown w.clength (c + 1);
    w.cdev <- grown w.cdev (c + 1);
    w.chash <- grown w.chash (c + 1)
  end;
  w.cfirst.(c) <- at;
  w.ccount.(c) <- total;
  w.clength.(c) <- len;
  w.cdev.(c) <- dev;
  w.chash.(c) <- !hash land max_int;
  if seen_before w c then -1
  else begin
    w.n_cands <- c + 1;
    w.fill <- at + total;
    c
  end

(* The pending candidates, by length and, among equal lengths, newest
   first: the order in which the unbounded search accepts them.  Each round
   accepts the first, so a candidate at or past position [slots] (the
   accepts left) can never be accepted: new candidates only join ahead of
   it, and each accept moves it up by one as [slots] falls by one.  Such a
   candidate is dropped; it stays in the query's set, so finding it again
   adds nothing, as in the unbounded search. *)
let insert_pending w ~slots c =
  let len = w.clength.(c) and pending = w.pending in
  let pos = ref 0 in
  while !pos < w.n_pending && w.clength.(pending.(!pos)) < len do
    incr pos
  done;
  if !pos < slots then begin
    let last = Int.min w.n_pending (slots - 1) in
    for j = last downto !pos + 1 do
      pending.(j) <- pending.(j - 1)
    done;
    pending.(!pos) <- c;
    w.n_pending <- last + 1
  end

(* A candidate longer than this can never be accepted: once [slots]
   candidates are pending, every later accept is among them or shorter. *)
let cutoff w ~slots =
  if w.n_pending < slots then max_int else w.clength.(w.pending.(w.n_pending - 1))

let distances w ~sources =
  let g = w.g and bits = w.bits in
  let mask = (1 lsl bits) - 1 in
  let dist = Array.make (G.n_nodes g) max_int in
  w.size <- 0;
  for j = 0 to Array.length sources - 1 do
    let s = sources.(j) in
    if dist.(s) <> 0 then begin
      dist.(s) <- 0;
      push w s
    end
  done;
  while w.size > 0 do
    let x = pop w in
    let d = x lsr bits and v = x land mask in
    if d <= dist.(v) then
      for slot = g.G.offsets.(v) to g.G.offsets.(v + 1) - 1 do
        let o = g.G.nbr.(slot) in
        let nd = d + g.G.nbr_len.(slot) in
        if nd < dist.(o) then begin
          dist.(o) <- nd;
          push w ((nd lsl bits) lor o)
        end
      done
  done;
  dist

let k_shortest_in w ~h ~k ~sources ~n_sources ~targets =
  if k <= 0 || n_sources <= 0 || Array.length targets = 0 then 0
  else begin
    let g = w.g in
    let query = fresh w in
    w.query <- query;
    for j = 0 to Array.length targets - 1 do
      w.target.(targets.(j)) <- query
    done;
    (* A repeated source adds nothing: its hop from the virtual source is
       the same hop, and a second relaxation over it would only mark it
       [tied]. *)
    if n_sources > Array.length w.sources then
      w.sources <- grown w.sources n_sources;
    w.n_sources <- 0;
    for j = 0 to n_sources - 1 do
      let s = sources.(j) in
      if w.source.(s) <> query then begin
        w.source.(s) <- query;
        w.sources.(w.n_sources) <- s;
        w.n_sources <- w.n_sources + 1
      end
    done;
    w.n_cands <- 0;
    w.fill <- 0;
    w.n_pending <- 0;
    w.n_accepted <- 0;
    let first_len = search w ~h ~bans:(fresh w) ~start:w.vsrc ~limit:max_int in
    if first_len >= 0 then begin
      (* Yen's deviation algorithm over node sequences. *)
      if k > Array.length w.accepted then begin
        w.accepted <- grown w.accepted k;
        w.lcp <- grown w.lcp k;
        w.pending <- grown w.pending k
      end;
      let accepted = w.accepted and lcp = w.lcp in
      accepted.(0) <- store w ~root:0 ~keep:0 ~len:first_len ~dev:0;
      w.n_accepted <- 1;
      let continue = ref true in
      while w.n_accepted < k && !continue do
        let n_a = w.n_accepted in
        let slots = k - n_a in
        let prev = accepted.(n_a - 1) in
        let pf = w.cfirst.(prev) in
        (* An accepted path shares the root of spur [i] when it agrees with
           [prev] on more than [i] leading nodes. *)
        for q = 0 to n_a - 1 do
          lcp.(q) <- common_prefix w accepted.(q) prev
        done;
        (* Lawler's refinement: a spur before [prev]'s deviation is skipped.
           Its root is a prefix of the path [prev] deviated from, which
           carries [prev]'s next hop, so its bans are those it had when the
           last earlier path with that root was processed.  The search would
           repeat that one under a cutoff no higher, and find a candidate
           already seen or none. *)
        let root_len = ref 0 in
        for i = 0 to w.ccount.(prev) - 2 do
          if i >= w.cdev.(prev) then begin
            let bans = fresh w in
            (* Ban the next hop of every accepted path sharing this root. *)
            for q = 0 to n_a - 1 do
              if lcp.(q) > i then begin
                let a = w.cfirst.(accepted.(q)) in
                if i = 0 then w.ban_src.(w.cnodes.(a + 1)) <- bans
                else if w.cnodes.(a + i + 1) = w.vtgt then
                  w.ban_tgt.(w.cnodes.(a + i)) <- bans
                else w.ban_edge.(w.chops.(a + i)) <- bans
              end
            done;
            for j = 0 to i - 1 do
              w.ban_node.(w.cnodes.(pf + j)) <- bans
            done;
            let limit =
              match cutoff w ~slots with
              | c when c = max_int -> c
              | c -> c - !root_len
            in
            let spur_len = search w ~h ~bans ~start:w.cnodes.(pf + i) ~limit in
            if spur_len >= 0 then begin
              let c =
                store w ~root:prev ~keep:i ~len:(!root_len + spur_len) ~dev:i
              in
              if c >= 0 then insert_pending w ~slots c
            end
          end;
          let e = w.chops.(pf + i) in
          if e >= 0 then root_len := !root_len + g.G.edges.(e).G.length
        done;
        if w.n_pending = 0 then continue := false
        else begin
          let pending = w.pending in
          accepted.(n_a) <- pending.(0);
          w.n_accepted <- n_a + 1;
          for j = 0 to w.n_pending - 2 do
            pending.(j) <- pending.(j + 1)
          done;
          w.n_pending <- w.n_pending - 1
        end
      done;
      (* Shortest first, equal lengths in acceptance order. *)
      for q = 1 to w.n_accepted - 1 do
        let c = accepted.(q) in
        let j = ref q in
        while !j > 0 && w.clength.(accepted.(!j - 1)) > w.clength.(c) do
          accepted.(!j) <- accepted.(!j - 1);
          decr j
        done;
        accepted.(!j) <- c
      done
    end;
    w.n_accepted
  end

let path_size w q = w.ccount.(w.accepted.(q)) - 2

let copy_path w q ~nodes ~edges ~at =
  let c = w.accepted.(q) in
  let f = w.cfirst.(c) + 1 and n = w.ccount.(c) - 2 in
  for j = 0 to n - 1 do
    nodes.(at + j) <- w.cnodes.(f + j)
  done;
  for j = 0 to n - 2 do
    edges.(at + j) <- w.chops.(f + j)
  done

let k_shortest g ~k ~sources ~targets =
  if k <= 0 || List.is_empty sources || List.is_empty targets then []
  else begin
    let w = workspace g in
    let sources = Array.of_list sources and targets = Array.of_list targets in
    let n =
      k_shortest_in w ~h:(distances w ~sources:targets) ~k ~sources
        ~n_sources:(Array.length sources) ~targets
    in
    List.init n (fun q ->
        let c = w.accepted.(q) in
        let f = w.cfirst.(c) + 1 and size = w.ccount.(c) - 2 in
        { nodes = List.init size (fun j -> w.cnodes.(f + j));
          edges = List.init (size - 1) (fun j -> w.chops.(f + j));
          length = w.clength.(c) })
  end
