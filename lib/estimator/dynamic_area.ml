open Twmc_geometry

(* Eqn 2's constants, computed once by [create]: per axis the core's
   half-span [h], the tent's peak [m] and its slope [(m - b) / h] (so a
   tent is [m - min (|v|, h) · slope]), and the scale [0.5 · C_w / ᾱ].
   An all-float record: read unboxed. *)
type consts = {
  hx : float;
  mx : float;
  sx : float;
  hy : float;
  my : float;
  sy : float;
  scale : float;
}

type t = {
  pin_density : Pin_density.t;
  f_rp : float array array;  (* Pin_density.f_rp_table *)
  c_w : float;
  k : consts;
}

let create ?beta ~core_w ~core_h nl =
  let m = Modulation.default in
  if core_w <= 0 || core_h <= 0 then invalid_arg "Dynamic_area.create";
  (* C_w is anchored to the reference die (see Wire_estimate.reference_dims);
     only the positional modulation sees the actual core. *)
  let ref_w, ref_h = Wire_estimate.reference_dims nl in
  let c_w = Wire_estimate.channel_width ?beta ~core_w:ref_w ~core_h:ref_h nl in
  let pin_density = Pin_density.compute nl in
  (* 1 / ᾱ, the core-mean of f_x·f_y *)
  let inv_mean = 1.0 /. Modulation.alpha m in
  let hx = float_of_int core_w /. 2.0 and hy = float_of_int core_h /. 2.0 in
  { pin_density;
    f_rp = Pin_density.f_rp_table pin_density;
    c_w;
    k =
      { hx;
        mx = m.Modulation.mx;
        sx = (m.Modulation.mx -. m.Modulation.bx) /. hx;
        hy;
        my = m.Modulation.my;
        sy = (m.Modulation.my -. m.Modulation.by) /. hy;
        scale = 0.5 *. c_w *. inv_mean } }

let c_w t = t.c_w

(* [Modulation.tent], [Float.min] included, operand for operand, on the
   precomputed slope: inlined so that no float is boxed on the per-move
   path. *)
let[@inline] tent m slope half_span v =
  if half_span <= 0.0 then m
  else
    let a = Float.abs v in
    let v =
      if half_span > a || ((not (Float.sign_bit half_span)) && Float.sign_bit a)
      then if half_span <> half_span then half_span else a
      else if a <> a then a
      else half_span
    in
    m -. (v *. slope)

let[@inline] tent_x k x = tent k.mx k.sx k.hx x
let[@inline] tent_y k y = tent k.my k.sy k.hy y

(* [int_of_float (Float.round x)] without the libm call: to the nearest
   integer, halves away from zero.  [f] is exact: for |x| >= 1, [i] (x
   truncated) has x's sign and |x|/2 <= |i| <= |x|, so Sterbenz's lemma
   makes x - i exact; below 1, [i] is 0 and [f] is x; from 2^52 on, x is
   an integer and [f] is 0.  Inlined here, not shared: a float argument
   that crosses a module boundary is boxed under [-opaque]. *)
let[@inline] round_nearest x =
  let i = int_of_float x in
  let f = x -. float_of_int i in
  if f >= 0.5 then i + 1 else if f <= -0.5 then i - 1 else i

(* Eqn 2 for one edge with pin-density factor [f_rp] and modulation
   [w = f_x · f_y]: [0.5 · C_w / ᾱ · w · f_rp], rounded. *)
let[@inline] expansion k w f_rp = round_nearest (k.scale *. w *. f_rp)

let edge_expansion t ~cell ~variant ~side ~x ~y =
  expansion t.k
    (tent_x t.k x *. tent_y t.k y)
    (Pin_density.f_rp t.pin_density ~cell ~variant side)

(* Each side at its own midpoint: the left and right sides share the
   tile's middle y, the bottom and top its middle x, so six tents serve
   the four sides. *)
let tile_expansions_into t ~cell ~variant ~x0 ~y0 ~x1 ~y1 out off =
  let k = t.k in
  let fx0 = float_of_int x0
  and fx1 = float_of_int x1
  and fy0 = float_of_int y0
  and fy1 = float_of_int y1 in
  let xm = (fx0 +. fx1) /. 2.0 and ym = (fy0 +. fy1) /. 2.0 in
  let f = t.f_rp.(cell) and base = 4 * variant in
  let fx_mid = tent_x k xm and fy_mid = tent_y k ym in
  out.(off) <- expansion k (tent_x k fx0 *. fy_mid) f.(base);
  out.(off + 1) <- expansion k (tent_x k fx1 *. fy_mid) f.(base + 1);
  out.(off + 2) <- expansion k (fx_mid *. tent_y k fy0) f.(base + 2);
  out.(off + 3) <- expansion k (fx_mid *. tent_y k fy1) f.(base + 3)

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

(* At the core centre both tents are at their peaks. *)
let center_expansion t =
  round_nearest (t.k.scale *. (tent_x t.k 0.0 *. tent_y t.k 0.0))
