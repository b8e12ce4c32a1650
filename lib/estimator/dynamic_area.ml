open Twmc_geometry

type t = {
  modulation : Modulation.t;
  pin_density : Pin_density.t;
  f_rp : float array array;  (* Pin_density.f_rp_table *)
  c_w : float;
  inv_mean : float;  (* 1 / core-mean of f_x·f_y *)
  core_w : float;
  core_h : float;
}

let create ?beta ~core_w ~core_h nl =
  let modulation = Modulation.default in
  if core_w <= 0 || core_h <= 0 then invalid_arg "Dynamic_area.create";
  let core_wf = float_of_int core_w and core_hf = float_of_int core_h in
  (* C_w is anchored to the reference die (see Wire_estimate.reference_dims);
     only the positional modulation sees the actual core. *)
  let ref_w, ref_h = Wire_estimate.reference_dims nl in
  let c_w = Wire_estimate.channel_width ?beta ~core_w:ref_w ~core_h:ref_h nl in
  let pin_density = Pin_density.compute nl in
  { modulation;
    pin_density;
    f_rp = Pin_density.f_rp_table pin_density;
    c_w;
    inv_mean = 1.0 /. Modulation.alpha modulation;
    core_w = core_wf;
    core_h = core_hf }

let c_w t = t.c_w

(* [Modulation.tent], [Float.min] included, operand for operand: inlined
   into [side_expansion] so that no float is boxed on the per-move path. *)
let[@inline] tent m b half_span v =
  if half_span <= 0.0 then m
  else
    let a = Float.abs v in
    let v =
      if half_span > a || ((not (Float.sign_bit half_span)) && Float.sign_bit a)
      then if half_span <> half_span then half_span else a
      else if a <> a then a
      else half_span
    in
    m -. (v *. ((m -. b) /. half_span))

(* Eqn 2 for one edge with pin-density factor [f_rp] at [(x, y)]:
   [Modulation.weight] times the constant factors, rounded. *)
let[@inline] side_expansion t f_rp ~x ~y =
  let m = t.modulation in
  let w =
    tent m.Modulation.mx m.Modulation.bx (t.core_w /. 2.0) x
    *. tent m.Modulation.my m.Modulation.by (t.core_h /. 2.0) y
  in
  int_of_float (Float.round (0.5 *. t.c_w *. t.inv_mean *. w *. f_rp))

let edge_expansion t ~cell ~variant ~side ~x ~y =
  side_expansion t (Pin_density.f_rp t.pin_density ~cell ~variant side) ~x ~y

let tile_expansions_into t ~cell ~variant ~x0 ~y0 ~x1 ~y1 out off =
  let fx0 = float_of_int x0
  and fx1 = float_of_int x1
  and fy0 = float_of_int y0
  and fy1 = float_of_int y1 in
  let xm = (fx0 +. fx1) /. 2.0 and ym = (fy0 +. fy1) /. 2.0 in
  let f = t.f_rp.(cell) and base = 4 * variant in
  out.(off) <- side_expansion t f.(base) ~x:fx0 ~y:ym;
  out.(off + 1) <- side_expansion t f.(base + 1) ~x:fx1 ~y:ym;
  out.(off + 2) <- side_expansion t f.(base + 2) ~x:xm ~y:fy0;
  out.(off + 3) <- side_expansion t f.(base + 3) ~x:xm ~y:fy1

(* [(left, right, bottom, top)] expansions for an absolutely-positioned
   tile: each side is evaluated at its own midpoint (Eqn 2's [x_i, y_i]).
   [tile_expansions_into] computes the same values bit for bit without
   allocating. *)
let tile_expansions t ~cell ~variant (r : Rect.t) =
  let e = Array.make 4 0 in
  tile_expansions_into t ~cell ~variant ~x0:r.Rect.x0 ~y0:r.Rect.y0
    ~x1:r.Rect.x1 ~y1:r.Rect.y1 e 0;
  (e.(0), e.(1), e.(2), e.(3))

let expand_tile t ~cell ~variant r =
  let left, right, bottom, top = tile_expansions t ~cell ~variant r in
  Rect.expand r ~left ~right ~bottom ~top

let center_expansion t =
  let w =
    Modulation.weight t.modulation ~core_w:t.core_w ~core_h:t.core_h ~x:0.0
      ~y:0.0
  in
  int_of_float (Float.round (0.5 *. t.c_w *. t.inv_mean *. w))
