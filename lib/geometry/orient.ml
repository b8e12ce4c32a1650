type t = R0 | R90 | R180 | R270 | FX | FY | FX90 | FY90

let all = [ R0; R90; R180; R270; FX; FY; FX90; FY90 ]

let apply o (x, y) =
  match o with
  | R0 -> (x, y)
  | R90 -> (-y, x)
  | R180 -> (-x, -y)
  | R270 -> (y, -x)
  | FX -> (x, -y)
  | FY -> (-x, y)
  | FX90 -> (y, x)
  | FY90 -> (-y, -x)

let apply_rect o (r : Rect.t) =
  let a = apply o (r.x0, r.y0) and b = apply o (r.x1, r.y1) in
  Rect.of_corners a b

(* Compose by probing the action on two independent points; D4 is faithful on
   {(1,0),(0,1)}. *)
let compose a b =
  let target p = apply a (apply b p) in
  let e1 = target (1, 0) and e2 = target (0, 1) in
  match List.find_opt (fun o -> apply o (1, 0) = e1 && apply o (0, 1) = e2) all with
  | Some o -> o
  | None -> assert false

let inverse o =
  match List.find_opt (fun i -> compose i o = R0) all with
  | Some i -> i
  | None -> assert false

let swaps_axes = function
  | R0 | R180 | FX | FY -> false
  | R90 | R270 | FX90 | FY90 -> true

let of_int = function
  | 0 -> R0
  | 1 -> R90
  | 2 -> R180
  | 3 -> R270
  | 4 -> FX
  | 5 -> FY
  | 6 -> FX90
  | 7 -> FY90
  | n -> invalid_arg (Printf.sprintf "Orient.of_int: %d" n)

let to_int = function
  | R0 -> 0
  | R90 -> 1
  | R180 -> 2
  | R270 -> 3
  | FX -> 4
  | FY -> 5
  | FX90 -> 6
  | FY90 -> 7

(* [compose FX90 o] by [to_int o], built once: the displacement and
   interchange rescues ask for it on every inverted trial. *)
let inversions = Array.init 8 (fun i -> compose FX90 (of_int i))
let aspect_inversion_of o = inversions.(to_int o)

let to_string = function
  | R0 -> "R0"
  | R90 -> "R90"
  | R180 -> "R180"
  | R270 -> "R270"
  | FX -> "FX"
  | FY -> "FY"
  | FX90 -> "FX90"
  | FY90 -> "FY90"

let of_string = function
  | "R0" -> Some R0
  | "R90" -> Some R90
  | "R180" -> Some R180
  | "R270" -> Some R270
  | "FX" -> Some FX
  | "FY" -> Some FY
  | "FX90" -> Some FX90
  | "FY90" -> Some FY90
  | _ -> None

let equal (a : t) (b : t) = a = b
