open Twmc_netlist

let edge_ranges (v : Cell.variant) =
  let n_edges = List.length v.Cell.edges in
  let starts = Array.make n_edges max_int and lens = Array.make n_edges 0 in
  Array.iteri
    (fun i (s : Pin_site.t) ->
      let e = s.Pin_site.edge in
      if i < starts.(e) then starts.(e) <- i;
      lens.(e) <- lens.(e) + 1)
    v.Cell.sites;
  Array.init n_edges (fun e ->
      ((if lens.(e) = 0 then 0 else starts.(e)), lens.(e)))

let group_members (c : Cell.t) =
  let tbl = Hashtbl.create 4 in
  Array.iteri
    (fun i (p : Pin.t) ->
      match (p.Pin.loc, p.Pin.group) with
      | Pin.Uncommitted _, Some g ->
          Hashtbl.replace tbl g
            ((i, p.Pin.seq) :: (try Hashtbl.find tbl g with Not_found -> []))
      | _ -> ())
    c.Cell.pins;
  Hashtbl.fold
    (fun g members acc ->
      let members =
        List.stable_sort
          (fun (i1, s1) (i2, s2) ->
            match (s1, s2) with
            | Some a, Some b -> Stdlib.compare a b
            | Some _, None -> -1
            | None, Some _ -> 1
            | None, None -> Stdlib.compare i1 i2)
          (List.rev members)
      in
      (g, List.map fst members) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let lone_uncommitted (c : Cell.t) =
  Array.to_list
    (Array.mapi
       (fun i (p : Pin.t) ->
         match (p.Pin.loc, p.Pin.group) with
         | Pin.Uncommitted _, None -> Some i
         | _ -> None)
       c.Cell.pins)
  |> List.filter_map Fun.id

(* Writes consecutive site assignments for [members] into [sites], starting
   at [anchor_site] and wrapping within that site's edge.  The anchor must
   be a site on an edge allowed for the group's first member. *)
let assign_group c ~variant ~members ~anchor_site ~sites =
  let v = Cell.variant c variant in
  let anchor = v.Cell.sites.(anchor_site) in
  let ranges = edge_ranges v in
  let start, len = ranges.(anchor.Pin_site.edge) in
  if len = 0 then invalid_arg "Sites.assign_group: anchor edge has no sites";
  let off = anchor_site - start in
  List.iteri
    (fun k pin -> sites.(pin) <- start + ((off + k) mod len))
    members

let random_assignment rng (c : Cell.t) ~variant =
  let sites = Array.make (Cell.n_pins c) (-1) in
  let pick_allowed pin =
    match Cell.allowed_sites c ~variant pin with
    | [] ->
        invalid_arg
          (Printf.sprintf "Sites.random_assignment: pin %d of %s has no site"
             pin c.Cell.name)
    | l -> Twmc_sa.Rng.pick_list rng l
  in
  List.iter (fun p -> sites.(p) <- pick_allowed p) (lone_uncommitted c);
  List.iter
    (fun (_, members) ->
      match members with
      | [] -> ()
      | first :: _ ->
          let anchor = pick_allowed first in
          assign_group c ~variant ~members ~anchor_site:anchor ~sites)
    (group_members c);
  sites
