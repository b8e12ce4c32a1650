open Twmc_geometry

type axis = H | V

let axis_to_string = function H -> "h" | V -> "v"
let axis_of_string = function "h" -> Some H | "v" -> Some V | _ -> None

type t =
  | Blockage of Rect.t
  | Keepout of { cell : int; margin : int }
  | Fixed of { cell : int; x : int; y : int }
  | Region of { cell : int; rect : Rect.t }
  | Boundary of { cell : int; side : Side.t }
  | Align of { a : int; b : int; axis : axis }
  | Abut of { a : int; b : int }
  | Density of { rect : Rect.t; cap_permille : int }

type spec =
  | Blockage_spec of { x0 : int; y0 : int; x1 : int; y1 : int }
  | Keepout_spec of { cell : string; margin : int }
  | Fixed_spec of { cell : string; x : int; y : int }
  | Region_spec of { cell : string; x0 : int; y0 : int; x1 : int; y1 : int }
  | Boundary_spec of { cell : string; side : Side.t }
  | Align_spec of { a : string; b : string; axis : axis }
  | Abut_spec of { a : string; b : string }
  | Density_spec of {
      x0 : int;
      y0 : int;
      x1 : int;
      y1 : int;
      cap_permille : int;
    }

let kind_name = function
  | Blockage _ -> "blockage"
  | Keepout _ -> "keepout"
  | Fixed _ -> "fixed"
  | Region _ -> "region"
  | Boundary _ -> "boundary"
  | Align _ -> "align"
  | Abut _ -> "abut"
  | Density _ -> "density"

let spec_cells = function
  | Blockage_spec _ | Density_spec _ -> []
  | Keepout_spec { cell; _ } | Fixed_spec { cell; _ } | Region_spec { cell; _ }
  | Boundary_spec { cell; _ } ->
      [ cell ]
  | Align_spec { a; b; _ } | Abut_spec { a; b } -> [ a; b ]

(* Which cells must re-evaluate this constraint when they move.  [None]
   means "every cell" (the penalty reads all tile geometry). *)
let scope = function
  | Blockage _ | Density _ -> None
  | Keepout _ -> None
  | Fixed { cell; _ } | Region { cell; _ } | Boundary { cell; _ } ->
      Some [ cell ]
  | Align { a; b; _ } -> Some [ a; b ]
  | Abut { a; b } -> Some [ a; b ]

let resolve ~cell_index spec =
  match spec with
  | Blockage_spec { x0; y0; x1; y1 } ->
      Blockage (Rect.make ~x0 ~y0 ~x1 ~y1)
  | Keepout_spec { cell; margin } ->
      if margin <= 0 then
        invalid_arg (Printf.sprintf "keepout %s: nonpositive margin %d" cell margin);
      Keepout { cell = cell_index cell; margin }
  | Fixed_spec { cell; x; y } -> Fixed { cell = cell_index cell; x; y }
  | Region_spec { cell; x0; y0; x1; y1 } ->
      Region { cell = cell_index cell; rect = Rect.make ~x0 ~y0 ~x1 ~y1 }
  | Boundary_spec { cell; side } -> Boundary { cell = cell_index cell; side }
  | Align_spec { a; b; axis } ->
      Align { a = cell_index a; b = cell_index b; axis }
  | Abut_spec { a; b } -> Abut { a = cell_index a; b = cell_index b }
  | Density_spec { x0; y0; x1; y1; cap_permille } ->
      if cap_permille <= 0 || cap_permille > 1000 then
        invalid_arg
          (Printf.sprintf "density: cap %d outside (0, 1000]" cap_permille);
      Density { rect = Rect.make ~x0 ~y0 ~x1 ~y1; cap_permille }

let spec_of ~cell_name = function
  | Blockage r ->
      Blockage_spec { x0 = r.Rect.x0; y0 = r.Rect.y0; x1 = r.Rect.x1; y1 = r.Rect.y1 }
  | Keepout { cell; margin } -> Keepout_spec { cell = cell_name cell; margin }
  | Fixed { cell; x; y } -> Fixed_spec { cell = cell_name cell; x; y }
  | Region { cell; rect = r } ->
      Region_spec
        { cell = cell_name cell; x0 = r.Rect.x0; y0 = r.Rect.y0;
          x1 = r.Rect.x1; y1 = r.Rect.y1 }
  | Boundary { cell; side } -> Boundary_spec { cell = cell_name cell; side }
  | Align { a; b; axis } ->
      Align_spec { a = cell_name a; b = cell_name b; axis }
  | Abut { a; b } -> Abut_spec { a = cell_name a; b = cell_name b }
  | Density { rect = r; cap_permille } ->
      Density_spec
        { x0 = r.Rect.x0; y0 = r.Rect.y0; x1 = r.Rect.x1; y1 = r.Rect.y1;
          cap_permille }

let translate ~dx ~dy = function
  | Blockage r -> Blockage (Rect.translate r ~dx ~dy)
  | Fixed { cell; x; y } -> Fixed { cell; x = x + dx; y = y + dy }
  | Region { cell; rect } -> Region { cell; rect = Rect.translate rect ~dx ~dy }
  | Density { rect; cap_permille } ->
      Density { rect = Rect.translate rect ~dx ~dy; cap_permille }
  | (Keepout _ | Boundary _ | Align _ | Abut _) as c -> c

(* ---------------------------------------------------------------- eval *)

(* Every penalty is an exact integer (areas and Manhattan distances), so
   the float accumulators built on top of [eval] commute and cancel
   exactly: the delta path, the apply path and the from-scratch recompute
   agree bit-for-bit by construction. *)

let bbox_of_tiles = function
  | [] -> None
  | t :: rest -> Some (List.fold_left Rect.hull t rest)

let eval ~n_cells ~tiles ~pos ~core c =
  match c with
  | Blockage r ->
      let acc = ref 0 in
      for ci = 0 to n_cells - 1 do
        List.iter (fun t -> acc := !acc + Rect.inter_area t r) (tiles ci)
      done;
      !acc
  | Keepout { cell; margin } ->
      let halo = List.map (fun t -> Rect.expand_uniform t margin) (tiles cell) in
      let acc = ref 0 in
      for ci = 0 to n_cells - 1 do
        if ci <> cell then
          List.iter
            (fun t ->
              List.iter (fun h -> acc := !acc + Rect.inter_area t h) halo)
            (tiles ci)
      done;
      !acc
  | Fixed { cell; x; y } ->
      let cx, cy = pos cell in
      abs (cx - x) + abs (cy - y)
  | Region { cell; rect } ->
      List.fold_left
        (fun acc t -> acc + (Rect.area t - Rect.inter_area t rect))
        0 (tiles cell)
  | Boundary { cell; side } -> (
      match bbox_of_tiles (tiles cell) with
      | None -> 0
      | Some bb -> (
          match side with
          | Side.Left -> abs (bb.Rect.x0 - core.Rect.x0)
          | Side.Right -> abs (core.Rect.x1 - bb.Rect.x1)
          | Side.Bottom -> abs (bb.Rect.y0 - core.Rect.y0)
          | Side.Top -> abs (core.Rect.y1 - bb.Rect.y1)))
  | Align { a; b; axis } -> (
      let xa, ya = pos a and xb, yb = pos b in
      match axis with H -> abs (ya - yb) | V -> abs (xa - xb))
  | Abut { a; b } -> (
      match (bbox_of_tiles (tiles a), bbox_of_tiles (tiles b)) with
      | None, _ | _, None -> 0
      | Some ra, Some rb ->
          let gap lo0 hi0 lo1 hi1 = max 0 (max (lo1 - hi0) (lo0 - hi1)) in
          gap ra.Rect.x0 ra.Rect.x1 rb.Rect.x0 rb.Rect.x1
          + gap ra.Rect.y0 ra.Rect.y1 rb.Rect.y0 rb.Rect.y1)
  | Density { rect; cap_permille } ->
      let occupied = ref 0 in
      for ci = 0 to n_cells - 1 do
        List.iter
          (fun t -> occupied := !occupied + Rect.inter_area t rect)
          (tiles ci)
      done;
      max 0 (!occupied - (Rect.area rect * cap_permille / 1000))

let equal (a : t) (b : t) = a = b
