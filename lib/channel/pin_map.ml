open Twmc_geometry
open Twmc_netlist

type terminal = { candidates : int list; pos : int * int }
type net_task = { net : int; terminals : terminal list }

let on_closed_rect (r : Rect.t) (x, y) =
  x >= r.Rect.x0 && x <= r.Rect.x1 && y >= r.Rect.y0 && y <= r.Rect.y1

let project_pin g ~cell ~pos =
  let hits = ref [] in
  Array.iteri
    (fun i region ->
      if Region.borders_cell region cell && on_closed_rect region.Region.rect pos
      then hits := i :: !hits)
    g.Graph.regions;
  match !hits with
  | [] -> [ Graph.nearest_node g pos ]
  | l -> List.rev l

let tasks g p =
  let nl = Twmc_place.Placement.netlist p in
  Array.to_list
    (Array.mapi
       (fun ni (net : Net.t) ->
         (* Group pin references into terminals by (cell, equiv class);
            pins without an equiv class are their own terminal. *)
         let groups = Hashtbl.create 8 in
         let order = ref [] in
         Array.iteri
           (fun k (r : Net.pin_ref) ->
             let cell = r.Net.cell in
             let pin = nl.Netlist.cells.(cell).Cell.pins.(r.Net.pin) in
             let key =
               match pin.Pin.equiv with
               | Some e -> `Equiv (cell, e)
               | None -> `Solo k
             in
             let pos = Twmc_place.Placement.pin_position p ~cell ~pin:r.Net.pin in
             let cands = project_pin g ~cell ~pos in
             match Hashtbl.find_opt groups key with
             | Some (old_cands, old_pos) ->
                 Hashtbl.replace groups key (old_cands @ cands, old_pos)
             | None ->
                 Hashtbl.add groups key (cands, pos);
                 order := key :: !order)
           net.Net.pins;
         let terminals =
           List.rev_map
             (fun key ->
               let cands, pos = Hashtbl.find groups key in
               { candidates = List.sort_uniq Int.compare cands; pos })
             !order
         in
         { net = ni; terminals })
       nl.Netlist.nets)
  |> List.filter (fun t -> List.length t.terminals >= 2)
