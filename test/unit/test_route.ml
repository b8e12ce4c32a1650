(* Tests for the global router: M-shortest paths, Steiner enumeration,
   route assignment (Sec 4.2). *)

open Twmc_route
module Rect = Twmc_geometry.Rect
module Region = Twmc_channel.Region
module Graph = Twmc_channel.Graph

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A w x h grid of cell-sized regions; node (i,j) = i + j*w, unit hop
   length = cell size. *)
let grid ~w ~h ~cell =
  let dummy_edge pos =
    Twmc_geometry.Edge.make Twmc_geometry.Edge.V ~pos
      ~span:(Twmc_geometry.Interval.make 0 1)
      ~side:Twmc_geometry.Edge.High
  in
  let regions =
    List.concat_map
      (fun j ->
        List.init w (fun i ->
            { Region.rect =
                Rect.make ~x0:(i * cell) ~y0:(j * cell) ~x1:((i + 1) * cell)
                  ~y1:((j + 1) * cell);
              dir = Region.V;
              lo_owner = Region.Boundary;
              hi_owner = Region.Boundary;
              lo_edge = dummy_edge (i * cell);
              hi_edge = dummy_edge ((i + 1) * cell) }))
      (List.init h Fun.id)
  in
  Graph.build ~track_spacing:2 regions

(* A simple path graph 0 - 1 - 2 - ... - (n-1). *)
let line n ~cell =
  grid ~w:n ~h:1 ~cell

(* ----------------------------------------------------------- Mshortest *)

(* The single shortest path is the first of the k-shortest list. *)
let shortest g ~sources ~targets =
  match Mshortest.k_shortest g ~k:1 ~sources ~targets with
  | p :: _ -> Some p
  | [] -> None

let test_shortest_line () =
  let g = line 5 ~cell:10 in
  match shortest g ~sources:[ 0 ] ~targets:[ 4 ] with
  | Some p ->
      check "length" 40 p.Mshortest.length;
      Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3; 4 ] p.Mshortest.nodes;
      check "edges" 4 (List.length p.Mshortest.edges)
  | None -> Alcotest.fail "path expected"

let test_shortest_trivial_and_disconnected () =
  let g = line 3 ~cell:10 in
  (match shortest g ~sources:[ 1 ] ~targets:[ 1 ] with
  | Some p ->
      check "zero length" 0 p.Mshortest.length;
      Alcotest.(check (list int)) "single node" [ 1 ] p.Mshortest.nodes
  | None -> Alcotest.fail "trivial path expected");
  checkb "empty sources" true
    (shortest g ~sources:[] ~targets:[ 1 ] = None);
  (* Two disconnected single-region graphs. *)
  let dummy_edge pos =
    Twmc_geometry.Edge.make Twmc_geometry.Edge.V ~pos
      ~span:(Twmc_geometry.Interval.make 0 1)
      ~side:Twmc_geometry.Edge.High
  in
  let region rect =
    { Region.rect;
      dir = Region.V;
      lo_owner = Region.Boundary;
      hi_owner = Region.Boundary;
      lo_edge = dummy_edge 0;
      hi_edge = dummy_edge 1 }
  in
  let g2 =
    Graph.build ~track_spacing:2
      [ region (Rect.make ~x0:0 ~y0:0 ~x1:5 ~y1:5);
        region (Rect.make ~x0:50 ~y0:50 ~x1:55 ~y1:55) ]
  in
  checkb "disconnected" true
    (shortest g2 ~sources:[ 0 ] ~targets:[ 1 ] = None)

let test_multi_source_target () =
  let g = line 7 ~cell:10 in
  (* Sources {0, 5}, target {3}: nearer source (5) wins. *)
  match shortest g ~sources:[ 0; 5 ] ~targets:[ 3 ] with
  | Some p ->
      check "length from nearer source" 20 p.Mshortest.length;
      checkb "starts at 5" true (List.hd p.Mshortest.nodes = 5)
  | None -> Alcotest.fail "path expected"

let test_k_shortest_exhausts () =
  let g = line 4 ~cell:10 in
  (* Only one loopless path exists along a line. *)
  let paths = Mshortest.k_shortest g ~k:10 ~sources:[ 0 ] ~targets:[ 3 ] in
  check "single path" 1 (List.length paths)

(* ------------------------------------------ reference M-shortest search *)

(* The list-and-[Set] search that [Mshortest] replaced, kept as its oracle:
   a [Set]-ordered Dijkstra, [Hashtbl] bans per spur and a stable sort of
   every candidate each round.  It reads the graph only through [edges]
   and builds its own neighbour lists the way [Graph.build] once did, by
   prepending in edge-id order, so it also pins the slot order. *)
module Reference = struct
  module G = Graph

  type aug = {
    n : int;
    vsrc : int;
    vtgt : int;
    sources : int list;
    target_set : (int, unit) Hashtbl.t;
    adj : (int * int) list array;
    edges : G.edge array;
  }

  let adjacency (g : G.t) =
    let adj = Array.make (G.n_nodes g) [] in
    Array.iter
      (fun (e : G.edge) ->
        adj.(e.G.a) <- (e.G.id, e.G.b) :: adj.(e.G.a);
        adj.(e.G.b) <- (e.G.id, e.G.a) :: adj.(e.G.b))
      g.G.edges;
    adj

  let make_aug g ~sources ~targets =
    let n = G.n_nodes g in
    let target_set = Hashtbl.create 8 in
    List.iter (fun t -> Hashtbl.replace target_set t ()) targets;
    { n; vsrc = n; vtgt = n + 1; sources; target_set; adj = adjacency g;
      edges = g.G.edges }

  let edge_between aug u v =
    List.find_opt (fun (_, o) -> o = v) aug.adj.(u)
    |> Option.map (fun (eid, _) -> aug.edges.(eid))

  let succ aug v =
    if v = aug.vsrc then List.map (fun s -> (s, 0)) aug.sources
    else if v = aug.vtgt then []
    else
      let real =
        List.map (fun (eid, o) -> (o, aug.edges.(eid).G.length)) aug.adj.(v)
      in
      if Hashtbl.mem aug.target_set v then (aug.vtgt, 0) :: real else real

  module Pq = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end)

  let norm_pair u v = if u <= v then (u, v) else (v, u)

  let dijkstra aug ~start ~banned_pairs ~banned_nodes =
    let size = aug.n + 2 in
    let dist = Array.make size max_int in
    let prev = Array.make size (-1) in
    dist.(start) <- 0;
    let q = ref (Pq.singleton (0, start)) in
    let finished = ref false in
    while (not !finished) && not (Pq.is_empty !q) do
      let ((d, v) as min) = Pq.min_elt !q in
      q := Pq.remove min !q;
      if v = aug.vtgt then finished := true
      else if d <= dist.(v) then
        List.iter
          (fun (o, len) ->
            if
              (not (Hashtbl.mem banned_nodes o))
              && not (Hashtbl.mem banned_pairs (norm_pair v o))
            then
              let nd = d + len in
              if nd < dist.(o) then begin
                dist.(o) <- nd;
                prev.(o) <- v;
                q := Pq.add (nd, o) !q
              end)
          (succ aug v)
    done;
    if dist.(aug.vtgt) = max_int then None
    else
      let rec walk v acc = if v = -1 then acc else walk prev.(v) (v :: acc) in
      Some (walk aug.vtgt [], dist.(aug.vtgt))

  let hop_length aug u v =
    if u = aug.vsrc || v = aug.vsrc || u = aug.vtgt || v = aug.vtgt then 0
    else
      match edge_between aug u v with
      | Some e -> e.G.length
      | None -> invalid_arg "Reference: nodes not adjacent"

  let to_path aug nodes length =
    let real = List.filter (fun v -> v < aug.n) nodes in
    let rec edges = function
      | u :: (v :: _ as rest) -> (
          match edge_between aug u v with
          | Some e -> e.G.id :: edges rest
          | None -> edges rest)
      | _ -> []
    in
    { Mshortest.nodes = real; edges = edges real; length }

  let distances g ~sources =
    let adj = adjacency g in
    let n = G.n_nodes g in
    let dist = Array.make n max_int in
    let q = ref Pq.empty in
    List.iter
      (fun s ->
        if dist.(s) <> 0 then begin
          dist.(s) <- 0;
          q := Pq.add (0, s) !q
        end)
      sources;
    while not (Pq.is_empty !q) do
      let ((d, v) as min) = Pq.min_elt !q in
      q := Pq.remove min !q;
      if d <= dist.(v) then
        List.iter
          (fun (eid, o) ->
            let nd = d + g.G.edges.(eid).G.length in
            if nd < dist.(o) then begin
              dist.(o) <- nd;
              q := Pq.add (nd, o) !q
            end)
          adj.(v)
    done;
    dist

  let k_shortest g ~k ~sources ~targets =
    if k <= 0 || sources = [] || targets = [] then []
    else begin
      let aug = make_aug g ~sources ~targets in
      let empty_tbl () = Hashtbl.create 8 in
      match
        dijkstra aug ~start:aug.vsrc ~banned_pairs:(empty_tbl ())
          ~banned_nodes:(empty_tbl ())
      with
      | None -> []
      | Some first ->
          let a = ref [ first ] in
          let b = ref [] in
          let seen = Hashtbl.create 16 in
          Hashtbl.replace seen (fst first) ();
          let add_candidate c =
            if not (Hashtbl.mem seen (fst c)) then begin
              Hashtbl.replace seen (fst c) ();
              b := c :: !b
            end
          in
          let continue = ref true in
          while List.length !a < k && !continue do
            let prev_nodes, _ = List.hd !a in
            let prev_arr = Array.of_list prev_nodes in
            for i = 0 to Array.length prev_arr - 2 do
              let root = Array.sub prev_arr 0 (i + 1) in
              let banned_pairs = empty_tbl () in
              List.iter
                (fun (pn, _) ->
                  let pa = Array.of_list pn in
                  if Array.length pa > i + 1 && Array.sub pa 0 (i + 1) = root
                  then
                    Hashtbl.replace banned_pairs
                      (norm_pair pa.(i) pa.(i + 1))
                      ())
                !a;
              let banned_nodes = empty_tbl () in
              Array.iteri
                (fun j v -> if j < i then Hashtbl.replace banned_nodes v ())
                root;
              match
                dijkstra aug ~start:prev_arr.(i) ~banned_pairs ~banned_nodes
              with
              | None -> ()
              | Some (spur_nodes, spur_len) ->
                  let root_len = ref 0 in
                  for j = 0 to i - 1 do
                    root_len :=
                      !root_len + hop_length aug prev_arr.(j) prev_arr.(j + 1)
                  done;
                  let full =
                    Array.to_list (Array.sub prev_arr 0 i) @ spur_nodes
                  in
                  add_candidate (full, !root_len + spur_len)
            done;
            match
              List.sort (fun (_, l1) (_, l2) -> Stdlib.compare l1 l2) !b
            with
            | [] -> continue := false
            | best :: rest ->
                a := best :: !a;
                b := rest
          done;
          List.rev_map (fun (nodes, len) -> to_path aug nodes len) !a
          |> List.sort (fun (p1 : Mshortest.path) p2 ->
                 Stdlib.compare p1.Mshortest.length p2.Mshortest.length)
    end
end

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_k_shortest_grid () =
  let g = grid ~w:4 ~h:3 ~cell:10 in
  let paths = Mshortest.k_shortest g ~k:8 ~sources:[ 0 ] ~targets:[ 11 ] in
  checkb "several paths" true (List.length paths >= 4);
  (* Nondecreasing lengths. *)
  let rec nondec = function
    | (a : Mshortest.path) :: (b :: _ as rest) ->
        a.Mshortest.length <= b.Mshortest.length && nondec rest
    | _ -> true
  in
  checkb "sorted" true (nondec paths);
  (* Distinct node sequences, loopless. *)
  let seqs = List.map (fun (p : Mshortest.path) -> p.Mshortest.nodes) paths in
  check "distinct" (List.length seqs)
    (List.length (List.sort_uniq compare seqs));
  List.iter
    (fun (p : Mshortest.path) ->
      check "loopless"
        (List.length p.Mshortest.nodes)
        (List.length (List.sort_uniq compare p.Mshortest.nodes)))
    paths;
  (* Shortest is a Manhattan-optimal route in the diagonal-enabled grid:
     with corner adjacency, the diagonal distance dominates. *)
  let best = List.hd paths in
  checkb "first is shortest" true
    (List.for_all
       (fun (p : Mshortest.path) -> p.Mshortest.length >= best.Mshortest.length)
       paths);
  (* Equal hop lengths tie many paths, and the source and target sets
     overlap: 40 paths from 3 sources to 3 targets on a 5 x 4 grid, in the
     reference's order.  Without Lawler's refinement this query finds
     earlier candidates again. *)
  let g = grid ~w:5 ~h:4 ~cell:10 in
  let sources = [ 0; 6; 12 ] and targets = [ 12; 13; 19 ] in
  let paths = Mshortest.k_shortest g ~k:40 ~sources ~targets in
  check "adversarial query finds k" 40 (List.length paths);
  checkb "adversarial query matches the reference" true
    (paths = Reference.k_shortest g ~k:40 ~sources ~targets)

(* A heap entry is one int, the key shifted over the node id, so a graph
   whose keys could outgrow the bits left is refused when its workspace is
   made.  Two touching regions whose centres are 2^59 + 1 apart: on 2
   nodes (4 ids with the virtual ones) a key has 60 bits, room for edge
   lengths summing to (2^60 - 1) / 3. *)
let test_key_range () =
  let dummy_edge pos =
    Twmc_geometry.Edge.make Twmc_geometry.Edge.V ~pos
      ~span:(Twmc_geometry.Interval.make 0 1)
      ~side:Twmc_geometry.Edge.High
  in
  let region x0 x1 =
    { Region.rect = Rect.make ~x0 ~y0:0 ~x1 ~y1:2;
      dir = Region.V;
      lo_owner = Region.Boundary;
      hi_owner = Region.Boundary;
      lo_edge = dummy_edge x0;
      hi_edge = dummy_edge x1 }
  in
  let big = 1 lsl 60 in
  let g = Graph.build ~track_spacing:2 [ region 0 big; region big (big + 2) ] in
  check "edge length" ((1 lsl 59) + 1) g.Graph.edges.(0).Graph.length;
  (match Mshortest.k_shortest g ~k:1 ~sources:[ 0 ] ~targets:[ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      let value = string_of_int ((1 lsl 59) + 1) in
      checkb ("message names " ^ value ^ ": " ^ msg) true
        (contains msg value));
  (* Lengths near the top of the room still search exactly: a 4 x 3 grid
     of 2^50-wide cells sums to about 2^55.4, under the 2^56.4 its 14 ids
     leave. *)
  let g = grid ~w:4 ~h:3 ~cell:(1 lsl 50) in
  checkb "k shortest at large keys" true
    (Mshortest.k_shortest g ~k:8 ~sources:[ 0 ] ~targets:[ 11 ]
    = Reference.k_shortest g ~k:8 ~sources:[ 0 ] ~targets:[ 11 ])

(* Random channel graphs: 2-31 rectangles with even corners on a lattice
   whose size varies per case, so that regions touch and overlap, centres
   coincide (zero-length edges) and equal path lengths abound.  Each graph
   gets four queries of 1-3 sources and 1-3 targets (repeats and overlaps
   allowed) at k from 1 to 20, the flows' M. *)
let lattice_case =
  QCheck.Gen.(
    int_range 2 31 >>= fun n ->
    int_range 1 8 >>= fun span ->
    let rect =
      map4
        (fun x y w h -> (2 * x, 2 * y, 2 * (x + w), 2 * (y + h)))
        (int_range 0 span) (int_range 0 span) (int_range 1 3) (int_range 1 3)
    in
    let nodes = list_size (int_range 1 3) (int_range 0 (n - 1)) in
    pair (list_repeat n rect) (list_repeat 4 (triple nodes nodes (int_range 1 20))))

let print_lattice_case (rects, queries) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  String.concat " "
    (List.map (fun (x0, y0, x1, y1) -> Printf.sprintf "(%d,%d,%d,%d)" x0 y0 x1 y1) rects)
  ^ " | "
  ^ String.concat " "
      (List.map
         (fun (s, t, k) -> Printf.sprintf "[%s]->[%s] k=%d" (ints s) (ints t) k)
         queries)

let lattice_graph rects =
  let dummy_edge pos =
    Twmc_geometry.Edge.make Twmc_geometry.Edge.V ~pos
      ~span:(Twmc_geometry.Interval.make 0 1)
      ~side:Twmc_geometry.Edge.High
  in
  Graph.build ~track_spacing:2
    (List.map
       (fun (x0, y0, x1, y1) ->
         { Region.rect = Rect.make ~x0 ~y0 ~x1 ~y1;
           dir = Region.V;
           lo_owner = Region.Boundary;
           hi_owner = Region.Boundary;
           lo_edge = dummy_edge x0;
           hi_edge = dummy_edge x1 })
       rects)

let prop_matches_reference =
  QCheck.Test.make ~name:"k_shortest and distances match the reference"
    ~count:1500
    (QCheck.make ~print:print_lattice_case lattice_case)
    (fun (rects, queries) ->
      let g = lattice_graph rects in
      List.for_all
        (fun (sources, targets, k) ->
          Mshortest.k_shortest g ~k ~sources ~targets
          = Reference.k_shortest g ~k ~sources ~targets
          && Mshortest.distances (Mshortest.workspace g)
               ~sources:(Array.of_list sources)
             = Reference.distances g ~sources)
        queries)

(* The Prim-ordered Steiner enumeration as it was written over one
   [k_shortest] call per expansion, run here over [Reference.k_shortest]
   and [Reference.distances]: a per-call [Set] of kept routes counted with
   [cardinal], and a fresh all-distances sweep per added terminal. *)
module Steiner_reference = struct
  let compare_route (a : Steiner.route) (b : Steiner.route) =
    match Stdlib.compare a.Steiner.length b.Steiner.length with
    | 0 -> Stdlib.compare (a.Steiner.edges, a.Steiner.nodes) (b.edges, b.nodes)
    | c -> c

  module Route_set = Set.Make (struct
    type t = Steiner.route

    let compare = compare_route
  end)

  let prim_order g terminals =
    match terminals with
    | [] | [ _ ] -> terminals
    | first :: rest ->
        let ordered = ref [ first ] in
        let connected = ref first in
        let remaining = ref rest in
        while !remaining <> [] do
          let dist = Reference.distances g ~sources:!connected in
          let dist_of t = List.fold_left (fun acc c -> min acc dist.(c)) max_int t in
          let ranked =
            List.sort (fun a b -> Stdlib.compare (dist_of a) (dist_of b)) !remaining
          in
          let choice = List.hd ranked in
          ordered := choice :: !ordered;
          connected := choice @ !connected;
          remaining := List.filter (fun t' -> t' != choice) !remaining
        done;
        List.rev !ordered

  let route_of_edge_set (g : Graph.t) edge_ids node_ids =
    let edges = List.sort_uniq Stdlib.compare edge_ids in
    let nodes = List.sort_uniq Stdlib.compare node_ids in
    let length =
      List.fold_left (fun acc e -> acc + g.Graph.edges.(e).Graph.length) 0 edges
    in
    { Steiner.edges; nodes; length }

  let distinct_length (g : Graph.t) edges =
    List.sort_uniq Stdlib.compare edges
    |> List.fold_left (fun acc e -> acc + g.Graph.edges.(e).Graph.length) 0

  let routes_in_order ~budget_factor g ~m ~order =
    match order with
    | [] -> []
    | [ single ] -> [ { Steiner.edges = []; nodes = [ List.hd single ]; length = 0 } ]
    | first :: rest ->
        let best = ref Route_set.empty in
        let worst_kept () =
          if Route_set.cardinal !best < m then max_int
          else (Route_set.max_elt !best).Steiner.length
        in
        let record edge_ids node_ids =
          best := Route_set.add (route_of_edge_set g edge_ids node_ids) !best;
          if Route_set.cardinal !best > m then
            best := Route_set.remove (Route_set.max_elt !best) !best
        in
        let budget = ref (budget_factor * m) in
        let rec grow ~tree_nodes ~tree_edges ~depth = function
          | [] -> record tree_edges tree_nodes
          | terminal :: todo ->
              let sources = if tree_nodes = [] then first else tree_nodes in
              let k = max (if depth >= 2 then 1 else 2) (m lsr min depth 8) in
              List.iter
                (fun (p : Mshortest.path) ->
                  if !budget > 0 then begin
                    decr budget;
                    let new_edges = p.Mshortest.edges @ tree_edges in
                    let new_nodes = p.Mshortest.nodes @ tree_nodes in
                    if distinct_length g new_edges < worst_kept () then
                      grow ~tree_nodes:new_nodes ~tree_edges:new_edges
                        ~depth:(depth + 1) todo
                  end)
                (Reference.k_shortest g ~k ~sources ~targets:terminal)
        in
        grow ~tree_nodes:[] ~tree_edges:[] ~depth:0 rest;
        Route_set.elements !best

  let routes ~budget_factor g ~m ~terminals =
    routes_in_order ~budget_factor g ~m ~order:(prim_order g terminals)
end

(* Lattice graphs as above of 2-48 rectangles, each with two nets of 1-5
   terminals of 1-3 candidates, enumerated at [m] 1-20 (the flows run 10
   and the default 20) and [budget_factor] 1-12. *)
let steiner_case =
  QCheck.Gen.(
    int_range 2 48 >>= fun n ->
    int_range 1 8 >>= fun span ->
    let rect =
      map4
        (fun x y w h -> (2 * x, 2 * y, 2 * (x + w), 2 * (y + h)))
        (int_range 0 span) (int_range 0 span) (int_range 1 3) (int_range 1 3)
    in
    let terminals =
      list_size (int_range 1 5) (list_size (int_range 1 3) (int_range 0 (n - 1)))
    in
    pair (list_repeat n rect)
      (list_repeat 2
         (pair terminals (pair (int_range 1 20) (int_range 1 12)))))

let print_steiner_case (rects, nets) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  String.concat " "
    (List.map (fun (x0, y0, x1, y1) -> Printf.sprintf "(%d,%d,%d,%d)" x0 y0 x1 y1) rects)
  ^ " | "
  ^ String.concat " "
      (List.map
         (fun (terminals, (m, bf)) ->
           Printf.sprintf "{%s} m=%d budget_factor=%d"
             (String.concat " " (List.map (fun t -> "[" ^ ints t ^ "]") terminals))
             m bf)
         nets)

let prop_steiner_matches_reference =
  QCheck.Test.make ~name:"Steiner.routes matches the reference enumeration"
    ~count:250
    (QCheck.make ~print:print_steiner_case steiner_case)
    (fun (rects, nets) ->
      let g = lattice_graph rects in
      List.for_all
        (fun (terminals, (m, budget_factor)) ->
          Steiner.routes ~budget_factor g ~m ~terminals
          = Steiner_reference.routes ~budget_factor g ~m ~terminals)
        nets)

(* ------------------------------------------------------------- Steiner *)

let test_steiner_two_pin () =
  let g = grid ~w:5 ~h:4 ~cell:10 in
  let direct = Mshortest.k_shortest g ~k:5 ~sources:[ 0 ] ~targets:[ 19 ] in
  let routes = Steiner.routes g ~m:5 ~terminals:[ [ 0 ]; [ 19 ] ] in
  checkb "routes found" true (routes <> []);
  check "two-pin = shortest path"
    (List.hd direct).Mshortest.length
    (List.hd routes).Steiner.length;
  Alcotest.check_raises "m = 0" (Invalid_argument "Steiner.enumerate: m <= 0")
    (fun () -> ignore (Steiner.routes g ~m:0 ~terminals:[ [ 0 ]; [ 19 ] ]))

let connected g (r : Steiner.route) =
  (* The route's edges form a connected subgraph over its nodes. *)
  match r.Steiner.nodes with
  | [] -> true
  | start :: _ ->
      let adj = Hashtbl.create 8 in
      List.iter
        (fun eid ->
          let e = g.Graph.edges.(eid) in
          Hashtbl.replace adj e.Graph.a
            (e.Graph.b :: (try Hashtbl.find adj e.Graph.a with Not_found -> []));
          Hashtbl.replace adj e.Graph.b
            (e.Graph.a :: (try Hashtbl.find adj e.Graph.b with Not_found -> [])))
        r.Steiner.edges;
      let seen = Hashtbl.create 8 in
      let rec dfs v =
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          List.iter dfs (try Hashtbl.find adj v with Not_found -> [])
        end
      in
      dfs start;
      List.for_all (Hashtbl.mem seen) r.Steiner.nodes

let test_steiner_multi_pin () =
  let g = grid ~w:6 ~h:5 ~cell:10 in
  let terminals = [ [ 0 ]; [ 5 ]; [ 24 ]; [ 29 ] ] in
  let routes = Steiner.routes g ~m:10 ~terminals in
  checkb "routes found" true (List.length routes >= 3);
  List.iter
    (fun (r : Steiner.route) ->
      (* Every terminal covered by some candidate node. *)
      List.iter
        (fun term ->
          checkb "terminal covered" true
            (List.exists (fun c -> List.mem c r.Steiner.nodes) term))
        terminals;
      checkb "route connected" true (connected g r);
      (* Length equals the sum of unique edges. *)
      let len =
        List.fold_left
          (fun acc e -> acc + g.Graph.edges.(e).Graph.length)
          0 r.Steiner.edges
      in
      check "length consistent" len r.Steiner.length)
    routes;
  (* Sorted by length. *)
  let rec nondec = function
    | (a : Steiner.route) :: (b :: _ as rest) ->
        a.Steiner.length <= b.Steiner.length && nondec rest
    | _ -> true
  in
  checkb "sorted" true (nondec routes)

let test_steiner_equivalent_pins () =
  let g = line 10 ~cell:10 in
  (* Terminal 2 may connect at node 1 (near) or node 8 (far): the best
     route uses the near candidate. *)
  let routes = Steiner.routes g ~m:5 ~terminals:[ [ 0 ]; [ 8; 1 ] ] in
  checkb "found" true (routes <> []);
  check "uses near equivalent" 10 (List.hd routes).Steiner.length

let test_steiner_unreachable () =
  let dummy_edge pos =
    Twmc_geometry.Edge.make Twmc_geometry.Edge.V ~pos
      ~span:(Twmc_geometry.Interval.make 0 1)
      ~side:Twmc_geometry.Edge.High
  in
  let region rect =
    { Region.rect;
      dir = Region.V;
      lo_owner = Region.Boundary;
      hi_owner = Region.Boundary;
      lo_edge = dummy_edge 0;
      hi_edge = dummy_edge 1 }
  in
  let g =
    Graph.build ~track_spacing:2
      [ region (Rect.make ~x0:0 ~y0:0 ~x1:5 ~y1:5);
        region (Rect.make ~x0:50 ~y0:50 ~x1:55 ~y1:55) ]
  in
  Alcotest.(check (list reject)) "no route"
    []
    (List.map (fun _ -> Alcotest.fail "route?") (Steiner.routes g ~m:5 ~terminals:[ [ 0 ]; [ 1 ] ]))

(* The words one enumeration allocates on a fixed lattice net: a 6 x 5
   grid with four corner terminals at m = 10, the route workload's M.
   That is the workspace, the terminals' bounds, the search's flat arrays
   and the ten routes as lists: 5544 words, and the bound adds 10%.  The
   list-built search allocated 32721 words here. *)
let steiner_words_bound = 6098.

let test_steiner_allocation () =
  let g = grid ~w:6 ~h:5 ~cell:10 in
  let run () = Steiner.routes g ~m:10 ~terminals:[ [ 0 ]; [ 5 ]; [ 24 ]; [ 29 ] ] in
  ignore (run ());
  let before = Gc.minor_words () in
  let routes = run () in
  let words = Gc.minor_words () -. before in
  check "routes" 10 (List.length routes);
  check "shortest" 130 (List.hd routes).Steiner.length;
  checkb
    (Printf.sprintf "%.0f words, at most %.0f" words steiner_words_bound)
    true
    (words <= steiner_words_bound)

(* -------------------------------------------------------------- Assign *)

(* Routes laid out as [Steiner.enumerate] returns them. *)
let pack (routes : Steiner.route list) =
  let rs = Array.of_list routes in
  let n = Array.length rs in
  let edge_at = Array.make (n + 1) 0 and node_at = Array.make (n + 1) 0 in
  Array.iteri
    (fun r (x : Steiner.route) ->
      edge_at.(r + 1) <- edge_at.(r) + List.length x.Steiner.edges;
      node_at.(r + 1) <- node_at.(r) + List.length x.Steiner.nodes)
    rs;
  { Steiner.n_routes = n;
    lengths = Array.map (fun (x : Steiner.route) -> x.Steiner.length) rs;
    edge_at;
    edge_ids = Array.of_list (List.concat_map (fun (x : Steiner.route) -> x.Steiner.edges) routes);
    node_at;
    node_ids = Array.of_list (List.concat_map (fun (x : Steiner.route) -> x.Steiner.nodes) routes) }

(* A 4-cycle ring: node 0 (bottom) and node 2 (top) are joined by exactly
   two edge-disjoint routes, via node 1 (right) or node 3 (left). *)
let ring () =
  let de pos =
    Twmc_geometry.Edge.make Twmc_geometry.Edge.V ~pos
      ~span:(Twmc_geometry.Interval.make 0 1)
      ~side:Twmc_geometry.Edge.High
  in
  let region rect =
    { Region.rect;
      dir = Region.V;
      lo_owner = Region.Boundary;
      hi_owner = Region.Boundary;
      lo_edge = de rect.Rect.x0;
      hi_edge = de rect.Rect.x1 }
  in
  (* ts=10 with thickness 10 gives capacity 1 per graph edge. *)
  Graph.build ~track_spacing:10
    [ region (Rect.make ~x0:0 ~y0:0 ~x1:30 ~y1:10);
      (* 0: bottom *)
      region (Rect.make ~x0:20 ~y0:10 ~x1:30 ~y1:40);
      (* 1: right *)
      region (Rect.make ~x0:0 ~y0:40 ~x1:30 ~y1:50);
      (* 2: top *)
      region (Rect.make ~x0:0 ~y0:10 ~x1:10 ~y1:40) (* 3: left *) ]

let test_assign_resolves_conflict () =
  let g = ring () in
  check "four edges" 4 (Graph.n_edges g);
  let r01 = Steiner.routes g ~m:4 ~terminals:[ [ 0 ]; [ 2 ] ] in
  check "both disjoint routes found" 2 (List.length r01);
  let alternatives = [| pack r01; pack r01 |] in
  let res =
    Assign.run ~m:4 ~rng:(Twmc_sa.Rng.create ~seed:4) ~graph:g ~alternatives ()
  in
  checkb "overflow reduced" true (res.Assign.overflow = 0);
  checkb "nets took different routes" true
    (res.Assign.chosen.(0) <> res.Assign.chosen.(1));
  (* Densities consistent with choices. *)
  let expect = Array.make (Graph.n_edges g) 0 in
  Array.iteri
    (fun i k ->
      List.iter
        (fun e -> expect.(e) <- expect.(e) + 1)
        (Steiner.alternative alternatives.(i) k).Steiner.edges)
    res.Assign.chosen;
  Alcotest.(check (array int)) "densities" expect res.Assign.edge_density

let test_assign_keeps_shortest_when_free () =
  let g = grid ~w:4 ~h:3 ~cell:20 in
  (* Plenty of capacity: everyone keeps the k=1 route and stops at once. *)
  let r = Steiner.routes g ~m:5 ~terminals:[ [ 0 ]; [ 11 ] ] in
  let alternatives = [| pack r |] in
  let res =
    Assign.run ~m:5 ~rng:(Twmc_sa.Rng.create ~seed:5) ~graph:g ~alternatives ()
  in
  check "kept k=1" 0 res.Assign.chosen.(0);
  check "no attempts needed" 0 res.Assign.attempts;
  check "overflow 0" 0 res.Assign.overflow

let test_assign_skips_empty () =
  (* A net with no route alternatives degrades to [skipped] instead of
     rejecting the whole assignment; nets that do have routes still get one. *)
  let g = line 3 ~cell:10 in
  let r = Steiner.routes g ~m:3 ~terminals:[ [ 0 ]; [ 2 ] ] in
  let res =
    Assign.run ~rng:(Twmc_sa.Rng.create ~seed:6) ~graph:g
      ~alternatives:[| pack []; pack r |] ()
  in
  Alcotest.(check (list int)) "skipped net listed" [ 0 ] res.Assign.skipped;
  checkb "live net still assigned" true
    (res.Assign.chosen.(1) >= 0
    && res.Assign.chosen.(1) < List.length r)

(* Random interchange as it was written with a scan: every attempt lists
   the over-capacity edges by scanning all of them (so the list runs in
   decreasing edge id) and draws one with [Rng.pick_list]. *)
module Assign_reference = struct
  let run ?m ~rng ~(graph : Graph.t) ~(alternatives : Steiner.route array array) () =
    let n_nets = Array.length alternatives in
    let live i = Array.length alternatives.(i) > 0 in
    let m =
      match m with
      | Some m -> m
      | None -> Array.fold_left (fun acc a -> max acc (Array.length a)) 1 alternatives
    in
    let n_edges = Graph.n_edges graph in
    let density = Array.make n_edges 0 in
    let chosen = Array.make n_nets 0 in
    Array.iteri
      (fun i a ->
        if live i then
          List.iter (fun e -> density.(e) <- density.(e) + 1) a.(0).Steiner.edges)
      alternatives;
    let overflow_of_edge e = max 0 (density.(e) - graph.Graph.edges.(e).Graph.capacity) in
    let x = ref 0 in
    for e = 0 to n_edges - 1 do
      x := !x + overflow_of_edge e
    done;
    let initial_overflow = !x in
    let l = ref 0 in
    Array.iteri (fun i a -> if live i then l := !l + a.(0).Steiner.length) alternatives;
    let users = Array.make n_edges [] in
    let add_user i (r : Steiner.route) =
      List.iter (fun e -> users.(e) <- i :: users.(e)) r.Steiner.edges
    in
    let remove_user i (r : Steiner.route) =
      List.iter (fun e -> users.(e) <- List.filter (fun j -> j <> i) users.(e)) r.Steiner.edges
    in
    Array.iteri (fun i a -> if live i then add_user i a.(0)) alternatives;
    let apply i k =
      let old_r = alternatives.(i).(chosen.(i)) and new_r = alternatives.(i).(k) in
      let dx = ref 0 in
      let shift sign e =
        dx := !dx - overflow_of_edge e;
        density.(e) <- density.(e) + sign;
        dx := !dx + overflow_of_edge e
      in
      List.iter (shift (-1)) old_r.Steiner.edges;
      List.iter (shift 1) new_r.Steiner.edges;
      remove_user i old_r;
      add_user i new_r;
      chosen.(i) <- k;
      (!dx, new_r.Steiner.length - old_r.Steiner.length)
    in
    let attempts = ref 0 and idle = ref 0 in
    let max_idle = max 200 (m * n_nets) in
    let overfull () =
      let acc = ref [] in
      for e = 0 to n_edges - 1 do
        if overflow_of_edge e > 0 then acc := e :: !acc
      done;
      !acc
    in
    while !x > 0 && !idle < max_idle do
      incr attempts;
      match overfull () with
      | [] -> ()
      | edges -> (
          match users.(Twmc_sa.Rng.pick_list rng edges) with
          | [] -> incr idle
          | us ->
              let i = Twmc_sa.Rng.pick_list rng us in
              let n_alts = Array.length alternatives.(i) in
              if n_alts < 2 then incr idle
              else
                let k = Twmc_sa.Rng.int_incl rng 0 (n_alts - 1) in
                if k = chosen.(i) then incr idle
                else
                  let old_k = chosen.(i) in
                  let dx, dl = apply i k in
                  if dx < 0 || (dx = 0 && dl <= 0) then begin
                    x := !x + dx;
                    l := !l + dl;
                    if dx = 0 && dl = 0 then incr idle else idle := 0
                  end
                  else begin
                    ignore (apply i old_k);
                    incr idle
                  end)
    done;
    (chosen, !l, !x, initial_overflow, density, !attempts)
end

(* Lattice graphs of 2-12 rectangles with capacities redrawn from 1-3, and
   1-12 nets of 0-6 alternatives of 0-5 edges each, so that edges are
   over capacity and nets share them. *)
let assign_case =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    let rect =
      map4
        (fun x y w h -> (2 * x, 2 * y, 2 * (x + w), 2 * (y + h)))
        (int_range 0 3) (int_range 0 3) (int_range 1 3) (int_range 1 3)
    in
    let route = list_size (int_range 0 5) nat in
    quad (list_repeat n rect)
      (list_size (int_range 1 64) (int_range 1 3))
      (list_size (int_range 1 12) (list_size (int_range 0 6) route))
      (pair (opt (int_range 1 8)) nat))

let print_assign_case (rects, caps, nets, (m, seed)) =
  let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  String.concat " "
    (List.map (fun (x0, y0, x1, y1) -> Printf.sprintf "(%d,%d,%d,%d)" x0 y0 x1 y1) rects)
  ^ " | caps " ^ ints caps ^ " | "
  ^ String.concat " " (List.map (fun alts -> "{" ^ String.concat " " (List.map ints alts) ^ "}") nets)
  ^ Printf.sprintf " | m=%s seed=%d"
      (match m with Some m -> string_of_int m | None -> "-")
      seed

let prop_assign_matches_reference =
  QCheck.Test.make ~name:"Assign.run matches the scanning reference"
    ~count:1000
    (QCheck.make ~print:print_assign_case assign_case)
    (fun (rects, caps, nets, (m, seed)) ->
      let g = lattice_graph rects in
      let n_edges = Graph.n_edges g in
      let caps = Array.of_list caps in
      let g =
        { g with
          Graph.edges =
            Array.map
              (fun (e : Graph.edge) ->
                { e with Graph.capacity = caps.(e.Graph.id mod Array.length caps) })
              g.Graph.edges }
      in
      let route picks =
        if n_edges = 0 then { Steiner.edges = []; nodes = []; length = 0 }
        else
          let edges = List.sort_uniq Stdlib.compare (List.map (fun e -> e mod n_edges) picks) in
          { Steiner.edges;
            nodes = [];
            length = List.fold_left (fun acc e -> acc + g.Graph.edges.(e).Graph.length) 0 edges }
      in
      let alternatives =
        Array.of_list (List.map (fun alts -> Array.of_list (List.map route alts)) nets)
      in
      let a =
        Assign.run ?m ~rng:(Twmc_sa.Rng.create ~seed) ~graph:g
          ~alternatives:(Array.map (fun alts -> pack (Array.to_list alts)) alternatives)
          ()
      in
      (a.Assign.chosen, a.Assign.total_length, a.Assign.overflow, a.Assign.initial_overflow,
       a.Assign.edge_density, a.Assign.attempts)
      = Assign_reference.run ?m ~rng:(Twmc_sa.Rng.create ~seed) ~graph:g ~alternatives ())

(* ------------------------------------------------------- Global router *)

let test_global_router_end_to_end () =
  (* Build a real placement, channels, and route every net. *)
  let nl =
    Twmc_workload.Synth.generate ~seed:31
      { Twmc_workload.Synth.default_spec with
        Twmc_workload.Synth.n_cells = 8;
        n_nets = 24;
        n_pins = 80 }
  in
  let params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 20 } in
  let r = Twmc_place.Stage1.run ~params ~rng:(Twmc_sa.Rng.create ~seed:7) nl in
  let p = r.Twmc_place.Stage1.placement in
  let regions = Twmc_channel.Extract.of_placement p in
  let g =
    Graph.build ~track_spacing:nl.Twmc_netlist.Netlist.track_spacing regions
  in
  let tasks = Twmc_channel.Pin_map.tasks g p in
  let res =
    Global_router.route ~m:8 ~rng:(Twmc_sa.Rng.create ~seed:8) ~graph:g ~tasks ()
  in
  checkb "most nets routed" true
    (List.length res.Global_router.routed
    >= (List.length tasks * 9 / 10));
  checkb "total length positive" true (res.Global_router.total_length > 0);
  (* Edge densities tally with the chosen routes. *)
  let expect = Array.make (Graph.n_edges g) 0 in
  List.iter
    (fun (rn : Global_router.routed_net) ->
      List.iter
        (fun e -> expect.(e) <- expect.(e) + 1)
        rn.Global_router.route.Steiner.edges)
    res.Global_router.routed;
  Alcotest.(check (array int)) "density tally" expect res.Global_router.edge_density;
  (* Node densities bound edge densities. *)
  let nd = Global_router.node_density res in
  Array.iter
    (fun (e : Graph.edge) ->
      checkb "node >= edge density" true
        (nd.(e.Graph.a) >= res.Global_router.edge_density.(e.Graph.id)
        && nd.(e.Graph.b) >= res.Global_router.edge_density.(e.Graph.id)))
    g.Graph.edges

(* ---------------------------------------------------------- Congestion *)

let test_congestion_report () =
  let g = ring () in
  let r01 = Steiner.routes g ~m:4 ~terminals:[ [ 0 ]; [ 2 ] ] in
  let alternatives = [| pack r01; pack r01 |] in
  let a =
    Assign.run ~m:4 ~rng:(Twmc_sa.Rng.create ~seed:14) ~graph:g ~alternatives ()
  in
  let res =
    { Global_router.graph = g;
      routed =
        Array.to_list
          (Array.mapi
             (fun i k ->
               { Global_router.net = i;
                 route = Steiner.alternative alternatives.(i) k;
                 alternatives = alternatives.(i).Steiner.n_routes })
             a.Assign.chosen);
      unroutable = [];
      total_length = a.Assign.total_length;
      overflow = a.Assign.overflow;
      initial_overflow = a.Assign.initial_overflow;
      edge_density = a.Assign.edge_density;
      assign_attempts = a.Assign.attempts }
  in
  let rep = Congestion.of_result res in
  check "edges" 4 rep.Congestion.n_edges;
  check "all used" 4 rep.Congestion.used_edges;
  check "no overflow" 0 rep.Congestion.total_overflow;
  check "max density" 1 rep.Congestion.max_density;
  (* Every used edge at exactly capacity -> all in the (75,100] bucket. *)
  check "full bucket" 4 (List.assoc "(75,100]" rep.Congestion.histogram);
  Alcotest.(check (float 1e-9)) "avg util" 1.0 rep.Congestion.avg_utilization;
  (* The bucket labels and their order are a stable contract: pinned here
     so no rewrite can silently reorder the histogram. *)
  Alcotest.(check (list string))
    "bucket labels pinned"
    [ "0"; "(0,25]"; "(25,50]"; "(50,75]"; "(75,100]"; ">100" ]
    (List.map fst rep.Congestion.histogram);
  Alcotest.(check (list string))
    "Congestion.buckets matches report order" Congestion.buckets
    (List.map fst rep.Congestion.histogram)

let () =
  Alcotest.run "route"
    [ ( "mshortest",
        [ Alcotest.test_case "line" `Quick test_shortest_line;
          Alcotest.test_case "trivial/disconnected" `Quick
            test_shortest_trivial_and_disconnected;
          Alcotest.test_case "multi source/target" `Quick test_multi_source_target;
          Alcotest.test_case "k shortest grid" `Quick test_k_shortest_grid;
          Alcotest.test_case "k exhausts" `Quick test_k_shortest_exhausts;
          Alcotest.test_case "key range" `Quick test_key_range;
          QCheck_alcotest.to_alcotest ~long:false
            ~rand:(Random.State.make [| 16 |])
            prop_matches_reference ] );
      ( "steiner",
        [ Alcotest.test_case "two pin" `Quick test_steiner_two_pin;
          Alcotest.test_case "multi pin" `Quick test_steiner_multi_pin;
          Alcotest.test_case "equivalent pins" `Quick test_steiner_equivalent_pins;
          Alcotest.test_case "unreachable" `Quick test_steiner_unreachable;
          Alcotest.test_case "allocation" `Quick test_steiner_allocation;
          QCheck_alcotest.to_alcotest ~long:false
            ~rand:(Random.State.make [| 22 |])
            prop_steiner_matches_reference ] );
      ( "assign",
        [ Alcotest.test_case "resolves conflict" `Quick test_assign_resolves_conflict;
          Alcotest.test_case "keeps shortest" `Quick test_assign_keeps_shortest_when_free;
          Alcotest.test_case "skips empty" `Quick test_assign_skips_empty;
          QCheck_alcotest.to_alcotest ~long:false
            ~rand:(Random.State.make [| 22 |])
            prop_assign_matches_reference ] );
      ( "global router",
        [ Alcotest.test_case "end to end" `Quick test_global_router_end_to_end ] );
      ( "congestion",
        [ Alcotest.test_case "report" `Quick test_congestion_report ] ) ]
