type t = {
  rho : float;
  lambda : float;
  wx_inf : float;
  wy_inf : float;
  min_window : int;
  (* [window] at one temperature: T, W_x, W_y.  The selectors read it, so
     they evaluate the window once per temperature, not once per move.  A
     float array, so that refreshing it boxes nothing; each limiter owns
     its own. *)
  memo : float array;
}

let create ~rho ~t_inf ~wx_inf ~wy_inf ~min_window =
  if rho < 1.0 then invalid_arg "Range_limiter.create: rho < 1";
  if t_inf <= 0.0 then invalid_arg "Range_limiter.create: t_inf <= 0";
  if min_window < 2 then invalid_arg "Range_limiter.create: min_window < 2";
  { rho;
    lambda = rho ** log10 t_inf;
    wx_inf;
    wy_inf;
    min_window;
    memo = [| nan; 0.0; 0.0 |] }

let of_core ~rho ~t_inf ~core ~min_window =
  let open Twmc_geometry in
  create ~rho ~t_inf
    ~wx_inf:(2.0 *. float_of_int (Rect.width core))
    ~wy_inf:(2.0 *. float_of_int (Rect.height core))
    ~min_window

let shrink t ~temp =
  if temp <= 0.0 then 0.0 else t.rho ** log10 temp /. t.lambda

let window t ~temp =
  let s = shrink t ~temp in
  let m = float_of_int t.min_window in
  (Float.max m (t.wx_inf *. s), Float.max m (t.wy_inf *. s))

let at_min_span t ~temp =
  let s = shrink t ~temp in
  let m = float_of_int t.min_window in
  t.wx_inf *. s <= m && t.wy_inf *. s <= m

let t_for_window_fraction t ~mu =
  if mu <= 0.0 || mu > 1.0 then
    invalid_arg "Range_limiter.t_for_window_fraction: mu out of (0,1]";
  (* W(T')/W∞ = ρ^log10(T')/λ = μ, and λ = ρ^log10(T∞), so
     T' = μ^(log_ρ 10) · T∞  (Eqn 28 for general ρ). *)
  let t_inf = 10.0 ** (log t.lambda /. log t.rho) in
  (mu ** (log 10.0 /. log t.rho)) *. t_inf

(* Round a float step to an integer, keeping at least magnitude 1 for
   nonzero factors so the minimum window still proposes unit moves. *)
let[@inline] round_step f =
  if f = 0.0 then 0
  else
    let r = int_of_float (Float.round f) in
    if r = 0 then if f > 0.0 then 1 else -1 else r

(* Brings [t.memo] to [temp]; a NaN temperature never matches. *)
let memo_window t temp =
  let m = t.memo in
  if m.(0) <> temp then begin
    let wx, wy = window t ~temp in
    m.(0) <- temp;
    m.(1) <- wx;
    m.(2) <- wy
  end

let select_ds rng t ~temp =
  memo_window t temp;
  let sx = t.memo.(1) /. 6.0 and sy = t.memo.(2) /. 6.0 in
  let ix = ref 0 and iy = ref 0 in
  while !ix = 0 && !iy = 0 do
    ix := Twmc_sa.Rng.int_incl rng (-3) 3;
    iy := Twmc_sa.Rng.int_incl rng (-3) 3
  done;
  (round_step (float_of_int !ix *. sx), round_step (float_of_int !iy *. sy))

let select_dr rng t ~temp =
  memo_window t temp;
  let hx = Int.max 1 (int_of_float (t.memo.(1) /. 2.0))
  and hy = Int.max 1 (int_of_float (t.memo.(2) /. 2.0)) in
  let dx = ref 0 and dy = ref 0 in
  while !dx = 0 && !dy = 0 do
    dx := Twmc_sa.Rng.int_incl rng (-hx) hx;
    dy := Twmc_sa.Rng.int_incl rng (-hy) hy
  done;
  (!dx, !dy)

let select sel rng t ~temp =
  match sel with
  | Params.Ds -> select_ds rng t ~temp
  | Params.Dr -> select_dr rng t ~temp
