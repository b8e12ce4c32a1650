open Twmc_geometry

type edge = { id : int; a : int; b : int; length : int; capacity : int }

type t = {
  regions : Region.t array;
  edges : edge array;
  offsets : int array;
  nbr : int array;
  nbr_edge : int array;
  nbr_len : int array;
}

let manhattan (x1, y1) (x2, y2) = abs (x1 - x2) + abs (y1 - y2)

let build ~track_spacing regions =
  if track_spacing <= 0 then invalid_arg "Graph.build: track_spacing";
  let regions = Array.of_list regions in
  let n = Array.length regions in
  let edges = ref [] in
  let next = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rect.touches regions.(i).Region.rect regions.(j).Region.rect then begin
        let cap =
          Int.max 1
            (Int.min (Region.thickness regions.(i)) (Region.thickness regions.(j))
            / track_spacing)
        in
        (* Centers can coincide for overlapping regions; traversing is then
           free but still capacity-limited. *)
        let length =
          manhattan (Region.center regions.(i)) (Region.center regions.(j))
        in
        edges := { id = !next; a = i; b = j; length; capacity = cap } :: !edges;
        incr next
      end
    done
  done;
  let edges = Array.of_list (List.rev !edges) in
  let offsets = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      offsets.(e.a + 1) <- offsets.(e.a + 1) + 1;
      offsets.(e.b + 1) <- offsets.(e.b + 1) + 1)
    edges;
  for v = 1 to n do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  let slots = 2 * Array.length edges in
  let nbr = Array.make slots 0 in
  let nbr_edge = Array.make slots 0 in
  let nbr_len = Array.make slots 0 in
  let cursor = Array.sub offsets 0 n in
  let put v e o =
    let s = cursor.(v) in
    cursor.(v) <- s + 1;
    nbr.(s) <- o;
    nbr_edge.(s) <- e.id;
    nbr_len.(s) <- e.length
  in
  (* Highest edge id first, so each node's slots list its edges in
     decreasing id order. *)
  for id = Array.length edges - 1 downto 0 do
    let e = edges.(id) in
    put e.a e e.b;
    put e.b e e.a
  done;
  { regions; edges; offsets; nbr; nbr_edge; nbr_len }

let n_nodes t = Array.length t.regions
let n_edges t = Array.length t.edges

let iter_neighbours t v f =
  for s = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f t.nbr_edge.(s) t.nbr.(s)
  done

let edge_between t i j =
  let rec find s stop =
    if s >= stop then None
    else if t.nbr.(s) = j then Some t.edges.(t.nbr_edge.(s))
    else find (s + 1) stop
  in
  find t.offsets.(i) t.offsets.(i + 1)

let nearest_node t p =
  if Array.length t.regions = 0 then invalid_arg "Graph.nearest_node: empty";
  let best = ref 0 and bestd = ref max_int in
  Array.iteri
    (fun i r ->
      let d = manhattan (Region.center r) p in
      if d < !bestd then begin
        bestd := d;
        best := i
      end)
    t.regions;
  !best

let connected_components t =
  let n = n_nodes t in
  let seen = Array.make n false in
  let comps = ref [] in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      let comp = ref [] in
      let stack = ref [ s ] in
      seen.(s) <- true;
      while not (List.is_empty !stack) do
        match !stack with
        | [] -> ()
        | v :: rest ->
            stack := rest;
            comp := v :: !comp;
            iter_neighbours t v (fun _ o ->
                if not seen.(o) then begin
                  seen.(o) <- true;
                  stack := o :: !stack
                end)
      done;
      comps := List.rev !comp :: !comps
    end
  done;
  List.rev !comps

let pp_stats ppf t =
  Format.fprintf ppf "channel graph: %d regions, %d edges, %d components"
    (n_nodes t) (n_edges t)
    (List.length (connected_components t))
