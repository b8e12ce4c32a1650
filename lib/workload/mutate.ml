open Twmc_geometry
open Twmc_netlist
module Rng = Twmc_sa.Rng

type t =
  | Sliver_macros of int
  | Tiny_cells of int
  | Duplicate_pins of int
  | Pathological_aspect of int
  | Heavy_net of int
  | Near_disconnected
  | Add_blockages of int
  | Add_keepouts of int
  | Conflicting_fixed of int
  | Zero_slack_regions of int
  | Pin_boundary of int
  | Align_chain of int
  | Abut_pairs of int
  | Tight_density of int

let all_kinds =
  [ Sliver_macros 3; Tiny_cells 3; Duplicate_pins 2; Pathological_aspect 2;
    Heavy_net 6; Near_disconnected; Add_blockages 2; Add_keepouts 2;
    Conflicting_fixed 1; Zero_slack_regions 2; Pin_boundary 2; Align_chain 3;
    Abut_pairs 2; Tight_density 1 ]

let is_constraint_kind = function
  | Add_blockages _ | Add_keepouts _ | Conflicting_fixed _
  | Zero_slack_regions _ | Pin_boundary _ | Align_chain _ | Abut_pairs _
  | Tight_density _ -> true
  | Sliver_macros _ | Tiny_cells _ | Duplicate_pins _ | Pathological_aspect _
  | Heavy_net _ | Near_disconnected -> false

let to_string = function
  | Sliver_macros n -> Printf.sprintf "sliver:%d" n
  | Tiny_cells n -> Printf.sprintf "tiny:%d" n
  | Duplicate_pins n -> Printf.sprintf "duppins:%d" n
  | Pathological_aspect n -> Printf.sprintf "aspect:%d" n
  | Heavy_net n -> Printf.sprintf "heavynet:%d" n
  | Near_disconnected -> "bridge"
  | Add_blockages n -> Printf.sprintf "blockage:%d" n
  | Add_keepouts n -> Printf.sprintf "keepout:%d" n
  | Conflicting_fixed n -> Printf.sprintf "fixpair:%d" n
  | Zero_slack_regions n -> Printf.sprintf "region0:%d" n
  | Pin_boundary n -> Printf.sprintf "boundary:%d" n
  | Align_chain n -> Printf.sprintf "align:%d" n
  | Abut_pairs n -> Printf.sprintf "abut:%d" n
  | Tight_density n -> Printf.sprintf "density0:%d" n

let of_string s =
  match String.split_on_char ':' s with
  | [ "bridge" ] -> Some Near_disconnected
  | [ kind; n ] -> (
      match int_of_string_opt n with
      | None -> None
      | Some n -> (
          match kind with
          | "sliver" -> Some (Sliver_macros n)
          | "tiny" -> Some (Tiny_cells n)
          | "duppins" -> Some (Duplicate_pins n)
          | "aspect" -> Some (Pathological_aspect n)
          | "heavynet" -> Some (Heavy_net n)
          | "blockage" -> Some (Add_blockages n)
          | "keepout" -> Some (Add_keepouts n)
          | "fixpair" -> Some (Conflicting_fixed n)
          | "region0" -> Some (Zero_slack_regions n)
          | "boundary" -> Some (Pin_boundary n)
          | "align" -> Some (Align_chain n)
          | "abut" -> Some (Abut_pairs n)
          | "density0" -> Some (Tight_density n)
          | _ -> None))
  | _ -> None

(* ------------------------------------------------------------------ IR *)

(* Mutations edit a builder-level intermediate form: per cell, a geometry
   body plus the pin specs the Builder accepts.  Converting a netlist to
   this form and back through [Builder.build] re-runs the full validation,
   so a mutation cannot silently produce a structurally-broken netlist —
   it either builds or raises [Invalid_argument]. *)
type body =
  | Macro of Shape.t
  | Instances of Shape.t list
  | Soft of { area : int; lo : float; hi : float }

type cell_ir = {
  cell_name : string;
  mutable body : body;
  mutable pins : Builder.pin_spec list;
}

let ir_of_netlist (nl : Netlist.t) =
  let net_name i = nl.Netlist.nets.(i).Net.name in
  Array.map
    (fun (c : Cell.t) ->
      let pins =
        Array.to_list
          (Array.map
             (fun (p : Pin.t) ->
               { Builder.pin_name = p.Pin.name;
                 net_name = net_name p.Pin.net;
                 equiv = p.Pin.equiv;
                 group = p.Pin.group;
                 seq = p.Pin.seq;
                 where =
                   (match p.Pin.loc with
                   | Pin.Fixed (x, y) -> Builder.At (x, y)
                   | Pin.Uncommitted r -> Builder.On r) })
             c.Cell.pins)
      in
      let body =
        match c.Cell.kind with
        | Cell.Macro -> Macro (Cell.variant c 0).Cell.shape
        | Cell.Custom ->
            Instances
              (List.init (Cell.n_variants c) (fun v ->
                   (Cell.variant c v).Cell.shape))
      in
      { cell_name = c.Cell.name; body; pins })
    nl.Netlist.cells

let build_ir ~name ~track_spacing ~(weights : (string * float * float) list)
    ?(constraints = []) cells =
  let b = Builder.create ~name ~track_spacing in
  Array.iter
    (fun c ->
      match c.body with
      | Macro shape -> Builder.add_macro b ~name:c.cell_name ~shape ~pins:c.pins
      | Instances shapes ->
          Builder.add_custom_instances b ~name:c.cell_name ~shapes ~pins:c.pins
            ()
      | Soft { area; lo; hi } ->
          Builder.add_custom b ~name:c.cell_name ~area ~aspect_lo:lo
            ~aspect_hi:hi ~pins:c.pins ())
    cells;
  (* Only re-attach weights for nets some pin still references — a mutation
     may have deleted whole nets, and a dangling weight is a build error. *)
  let live = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      List.iter (fun p -> Hashtbl.replace live p.Builder.net_name ()) c.pins)
    cells;
  List.iter
    (fun (net, h, v) ->
      if Hashtbl.mem live net then Builder.set_net_weight b ~net ~h ~v)
    weights;
  List.iter (fun spec -> Builder.add_constraint b spec) constraints;
  Builder.build b

let weights_of (nl : Netlist.t) =
  Array.to_list nl.Netlist.nets
  |> List.filter_map (fun (n : Net.t) ->
         if n.Net.hweight <> 1.0 || n.Net.vweight <> 1.0 then
           Some (n.Net.name, n.Net.hweight, n.Net.vweight)
         else None)

(* Up to [n] distinct indices of [cells] satisfying [pred], in a
   deterministic rng-shuffled order. *)
let pick_cells rng cells ~n pred =
  let candidates = ref [] in
  Array.iteri (fun i c -> if pred c then candidates := i :: !candidates) cells;
  let arr = Array.of_list (List.rev !candidates) in
  Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min n (Array.length arr)))

let body_area = function
  | Macro s -> Shape.area s
  | Instances [] -> 16
  | Instances (s :: _) -> Shape.area s
  | Soft { area; _ } -> area

let body_height = function
  | Macro s -> Shape.height s
  | Instances (s :: _) -> Shape.height s
  | _ -> 8

let body_width = function
  | Macro s -> Shape.width s
  | Instances (s :: _) -> Shape.width s
  | _ -> 8

(* Representative cell span for sizing constraint geometry: the mean bbox
   height across the circuit.  The core frame is origin-centered, so
   constraint rects built around (0, 0) land where cells actually go. *)
let typical_dim cells =
  let s = Array.fold_left (fun acc c -> acc + body_height c.body) 0 cells in
  max 4 (s / max 1 (Array.length cells))

(* Re-express a pin inside the bounding box of a fresh [w]×[h] rectangle in
   the builder's 0-based frame; old offsets are center-relative, so shift
   then clamp. *)
let clamp_pin ~w ~h = function
  | Builder.At (x, y) ->
      Builder.At
        (max 0 (min w (x + (w / 2))), max 0 (min h (y + (h / 2))))
  | Builder.On r -> Builder.On r

let replace_shape cell ~w ~h =
  cell.body <- Macro (Shape.rectangle ~w ~h);
  cell.pins <-
    List.map (fun p -> { p with Builder.where = clamp_pin ~w ~h p.Builder.where })
      cell.pins

let is_macro c = match c.body with Macro _ -> true | _ -> false

(* Pair up a picked index list: [a; b; c; d; e] -> [(a, b); (c, d)]. *)
let rec pairs_of = function
  | a :: b :: tl -> (a, b) :: pairs_of tl
  | _ -> []

let mutate_ir rng mutation cells ~add_constr =
  match mutation with
  | Sliver_macros n ->
      List.iter
        (fun i ->
          let c = cells.(i) in
          replace_shape c ~w:1 ~h:(max 4 (body_height c.body)))
        (pick_cells rng cells ~n is_macro)
  | Tiny_cells n ->
      List.iter
        (fun i -> replace_shape cells.(i) ~w:1 ~h:1)
        (pick_cells rng cells ~n is_macro)
  | Duplicate_pins n ->
      List.iter
        (fun i ->
          let c = cells.(i) in
          match c.pins with
          | [] -> ()
          | p :: _ -> c.pins <- c.pins @ [ p ])
        (pick_cells rng cells ~n (fun c -> c.pins <> []))
  | Pathological_aspect n ->
      List.iter
        (fun i ->
          let c = cells.(i) in
          c.body <-
            Soft { area = max 16 (body_area c.body); lo = 0.05; hi = 20.0 };
          c.pins <-
            List.map
              (fun p ->
                { p with
                  Builder.where =
                    (match p.Builder.where with
                    | Builder.On r -> Builder.On r
                    | Builder.At _ -> Builder.On Pin.Any_edge) })
              c.pins)
        (pick_cells rng cells ~n (fun _ -> true))
  | Heavy_net n ->
      (* Grow the first net mentioned anywhere into a bus. *)
      let bus =
        Array.to_list cells
        |> List.find_map (fun c ->
               match c.pins with
               | p :: _ -> Some p.Builder.net_name
               | [] -> None)
      in
      (match bus with
      | None -> ()
      | Some net ->
          List.iteri
            (fun k i ->
              let c = cells.(i) in
              let where =
                match c.body with
                | Macro _ ->
                    (* The variant frame is bbox-centered, so the origin is
                       always inside the bounding box. *)
                    (match c.pins with
                    | { Builder.where = Builder.At (x, y); _ } :: _ ->
                        Builder.At (x, y)
                    | _ -> Builder.At (0, 0))
                | _ -> Builder.On Pin.Any_edge
              in
              c.pins <-
                c.pins
                @ [ { Builder.pin_name = Printf.sprintf "qa_bus%d" k;
                      net_name = net;
                      equiv = None;
                      group = None;
                      seq = None;
                      where } ])
            (pick_cells rng cells ~n (fun _ -> true)))
  | Near_disconnected ->
      let n_cells = Array.length cells in
      let half i = if i < n_cells / 2 then 0 else 1 in
      let nets = Hashtbl.create 32 in
      Array.iteri
        (fun i c ->
          List.iter
            (fun p ->
              let net = p.Builder.net_name in
              let lo, hi =
                try Hashtbl.find nets net with Not_found -> (false, false)
              in
              Hashtbl.replace nets net
                (if half i = 0 then (true, hi) else (lo, true)))
            c.pins)
        cells;
      let spanning =
        Hashtbl.fold (fun net (lo, hi) acc -> if lo && hi then net :: acc else acc)
          nets []
        |> List.sort compare
      in
      (match spanning with
      | [] -> ()
      | bridge :: cut ->
          let cut = List.sort_uniq compare cut in
          ignore bridge;
          Array.iter
            (fun c ->
              c.pins <-
                List.filter
                  (fun p -> not (List.mem p.Builder.net_name cut))
                  c.pins)
            cells)
  | Add_blockages n ->
      (* A comb of blockage slabs straddling the core center, each about one
         typical cell wide — cells can rarely clear them entirely, so the
         incremental C4 path gets exercised by partial overlaps. *)
      let d = typical_dim cells in
      for k = 0 to n - 1 do
        let x0 = (k * 2 * d) - (n * d) in
        add_constr
          (Constr.Blockage_spec
             { x0; y0 = -d; x1 = x0 + d + 1; y1 = d + 1 })
      done
  | Add_keepouts n ->
      List.iter
        (fun i ->
          let c = cells.(i) in
          add_constr
            (Constr.Keepout_spec
               { cell = c.cell_name; margin = max 1 (body_height c.body / 2) }))
        (pick_cells rng cells ~n (fun _ -> true))
  | Conflicting_fixed n ->
      (* Pin pairs of cells to the same center: each fix is individually
         satisfiable, but the pair also maximizes overlap — penalty terms
         pull in opposite directions. *)
      List.iteri
        (fun j (a, b) ->
          let x = j * 2 and y = -j in
          add_constr (Constr.Fixed_spec { cell = cells.(a).cell_name; x; y });
          add_constr (Constr.Fixed_spec { cell = cells.(b).cell_name; x; y }))
        (pairs_of (pick_cells rng cells ~n:(2 * n) (fun _ -> true)))
  | Zero_slack_regions n ->
      (* Region exactly the cell's bounding box: a single feasible position,
         every displacement pays rent. *)
      List.iteri
        (fun k i ->
          let c = cells.(i) in
          let w = max 1 (body_width c.body)
          and h = max 1 (body_height c.body) in
          let x0 = (k * 3) - (w / 2) and y0 = (k * 3) - (h / 2) in
          add_constr
            (Constr.Region_spec
               { cell = c.cell_name; x0; y0; x1 = x0 + w; y1 = y0 + h }))
        (pick_cells rng cells ~n (fun _ -> true))
  | Pin_boundary n ->
      let sides = [| Side.Left; Side.Bottom; Side.Right; Side.Top |] in
      List.iteri
        (fun k i ->
          add_constr
            (Constr.Boundary_spec
               { cell = cells.(i).cell_name; side = sides.(k mod 4) }))
        (pick_cells rng cells ~n (fun _ -> true))
  | Align_chain n -> (
      match pick_cells rng cells ~n (fun _ -> true) with
      | [] | [ _ ] -> ()
      | first :: rest ->
          ignore
            (List.fold_left
               (fun (prev, k) i ->
                 add_constr
                   (Constr.Align_spec
                      { a = cells.(prev).cell_name;
                        b = cells.(i).cell_name;
                        axis = (if k mod 2 = 0 then Constr.H else Constr.V) });
                 (i, k + 1))
               (first, 0) rest))
  | Abut_pairs n ->
      List.iter
        (fun (a, b) ->
          add_constr
            (Constr.Abut_spec
               { a = cells.(a).cell_name; b = cells.(b).cell_name }))
        (pairs_of (pick_cells rng cells ~n:(2 * n) (fun _ -> true)))
  | Tight_density n ->
      (* Nested near-zero-cap windows around the core center: almost any
         occupancy inside is over budget. *)
      let d = typical_dim cells in
      for k = 1 to n do
        let r = d * (k + 1) in
        add_constr
          (Constr.Density_spec
             { x0 = -r; y0 = -r; x1 = r; y1 = r; cap_permille = 1 })
      done

let apply ~rng mutation (nl : Netlist.t) =
  let cells = ir_of_netlist nl in
  let cell_name ci = nl.Netlist.cells.(ci).Cell.name in
  let existing =
    Array.to_list (Array.map (Constr.spec_of ~cell_name) nl.Netlist.constraints)
  in
  let added = ref [] in
  mutate_ir rng mutation cells ~add_constr:(fun c -> added := c :: !added);
  build_ir ~name:nl.Netlist.name ~track_spacing:nl.Netlist.track_spacing
    ~weights:(weights_of nl)
    ~constraints:(existing @ List.rev !added)
    cells

let apply_all ~rng mutations nl =
  List.fold_left (fun nl m -> apply ~rng m nl) nl mutations
