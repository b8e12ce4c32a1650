module G = Twmc_channel.Graph

type route = { edges : int list; nodes : int list; length : int }

(* Lexicographic on int lists, [[]] first: the order [Stdlib.compare]
   gives them. *)
let rec compare_ints (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' ->
      if x < y then -1 else if x > y then 1 else compare_ints a' b'

(* By length, then structurally (for deterministic ordering): the order
   of [Stdlib.compare] on [(edges, nodes)]. *)
let compare_route a b =
  match Int.compare a.length b.length with
  | 0 -> (
      match compare_ints a.edges b.edges with
      | 0 -> compare_ints a.nodes b.nodes
      | c -> c)
  | c -> c

module Route_set = Set.Make (struct
  type t = route

  let compare = compare_route
end)

(* A terminal's candidate nodes, with the unbanned distance from every
   node to them: the lower bound of the searches that target it, computed
   on first use and shared by every search of one [routes] call. *)
type terminal = { cands : int list; h : int array Lazy.t }

(* Prim-style terminal order starting from a fixed first terminal: each
   addition is the unconnected terminal closest to the connected set. *)
let prim_order g terminals =
  match terminals with
  | [] | [ _ ] -> terminals
  | first :: rest ->
      let ordered = ref [ first ] in
      let connected = ref first.cands in
      let remaining = ref rest in
      while not (List.is_empty !remaining) do
        (* One all-distances sweep from the connected set serves every
           remaining terminal at once. *)
        let dist = Mshortest.distances g ~sources:!connected in
        let dist_of t =
          List.fold_left (fun acc c -> Int.min acc dist.(c)) max_int t.cands
        in
        let ranked =
          List.sort
            (fun a b -> Int.compare (dist_of a) (dist_of b))
            !remaining
        in
        let choice = List.hd ranked in
        ordered := choice :: !ordered;
        connected := choice.cands @ !connected;
        remaining := List.filter (fun t' -> t' != choice) !remaining
      done;
      List.rev !ordered

let route_of_edge_set g edge_ids node_ids =
  let edges = List.sort_uniq Int.compare edge_ids in
  let nodes = List.sort_uniq Int.compare node_ids in
  let length =
    List.fold_left (fun acc e -> acc + g.G.edges.(e).G.length) 0 edges
  in
  { edges; nodes; length }

(* Length of the distinct edges among [edges]; [mark] is per-edge scratch
   that holds the current [stamp] for every edge already counted. *)
let distinct_length g mark stamp edges =
  incr stamp;
  let st = !stamp in
  let rec sum acc = function
    | [] -> acc
    | e :: rest ->
        if mark.(e) = st then sum acc rest
        else begin
          mark.(e) <- st;
          sum (acc + g.G.edges.(e).G.length) rest
        end
  in
  sum 0 edges

let routes_in_order ~budget_factor ~mark ~stamp ~ws g ~m ~order =
  match order with
  | [] -> []
  | [ single ] ->
      [ { edges = []; nodes = [ List.hd single.cands ]; length = 0 } ]
  | first :: rest ->
      (* The M shortest complete routes so far, and how many there are. *)
      let best = ref Route_set.empty and n_best = ref 0 in
      let worst_kept () =
        if !n_best < m then max_int else (Route_set.max_elt !best).length
      in
      let record edge_ids node_ids =
        let r = route_of_edge_set g edge_ids node_ids in
        let added = Route_set.add r !best in
        (* [add] returns the set itself when [r] is already in it. *)
        if added != !best then begin
          best := added;
          incr n_best;
          if !n_best > m then begin
            best := Route_set.remove (Route_set.max_elt added) added;
            decr n_best
          end
        end
      in
      (* Depth-first over the stored alternatives; [tree_nodes] are the
         paper's "target nodes" (every node touched so far).  A global
         expansion budget bounds the worst case on high-fanout nets — the
         search visits alternatives shortest-first, so the budget trims only
         the long tail. *)
      let budget = ref (budget_factor * m) in
      let rec grow ~tree_nodes ~tree_edges ~depth = function
        | [] -> record tree_edges tree_nodes
        | terminal :: todo ->
            let sources =
              if List.is_empty tree_nodes then first.cands else tree_nodes
            in
            (* Full fan-out at the first level, narrowing with depth; from
               the third terminal on, a single shortest path suffices. *)
            let k =
              Int.max (if depth >= 2 then 1 else 2) (m lsr Int.min depth 8)
            in
            let paths =
              Mshortest.k_shortest_in ws ~h:(Lazy.force terminal.h) ~k ~sources
                ~targets:terminal.cands
            in
            List.iter
              (fun (p : Mshortest.path) ->
                if !budget > 0 then begin
                  decr budget;
                  (* Shared edges cost nothing extra, so bound with the
                     deduplicated length. *)
                  let new_edges = p.Mshortest.edges @ tree_edges in
                  let new_nodes = p.Mshortest.nodes @ tree_nodes in
                  let opt_len = distinct_length g mark stamp new_edges in
                  if opt_len < worst_kept () then
                    grow ~tree_nodes:new_nodes ~tree_edges:new_edges
                      ~depth:(depth + 1) todo
                end)
              paths
      in
      grow ~tree_nodes:[] ~tree_edges:[] ~depth:0 rest;
      Route_set.elements !best

let routes ?(budget_factor = 12) g ~m ~terminals =
  if m <= 0 then invalid_arg "Steiner.routes: m <= 0";
  if budget_factor <= 0 then invalid_arg "Steiner.routes: budget_factor <= 0";
  if List.exists List.is_empty terminals then
    invalid_arg "Steiner.routes: empty terminal candidate list";
  (* One search workspace and one heuristic per terminal serve every
     k-shortest query of this net. *)
  let ws = Mshortest.workspace g in
  let terminals =
    List.map
      (fun cands -> { cands; h = lazy (Mshortest.distances g ~sources:cands) })
      terminals
  in
  let mark = Array.make (G.n_edges g) 0 and stamp = ref 0 in
  routes_in_order ~budget_factor ~mark ~stamp ~ws g ~m
    ~order:(prim_order g terminals)
