(** Position modulation of the interconnect-area estimate (Sec 2.2, factor 2).

    Channels near the center of the core are wider than channels near the
    sides and corners.  The model is a separable tent function: [f_x] falls
    linearly from [M_x] at the core's vertical centerline to [B_x] at its
    left/right boundary, and symmetrically for [f_y]; the weight of a
    channel edge is the product [f_x · f_y].  For two metal layers the paper
    observed center ≈ 2× side ≈ 4× corner, i.e. M ≈ 2, B ≈ 1.  The constant
    α (Eqns 3–4) normalizes the product's mean over the core to 1. *)

type t = { mx : float; bx : float; my : float; by : float }

val default : t
(** [M_x = M_y = 2], [B_x = B_y = 1]. *)

val make : mx:float -> bx:float -> my:float -> by:float -> t
(** Requires [0 < B <= M] in each axis. *)

val fx : t -> core_w:float -> float -> float
(** [fx m ~core_w x] with the core centered at the origin; [x] is clamped to
    [±core_w/2] so transiently out-of-core cells get boundary weights. *)

val alpha : t -> float
(** The closed-form mean of [f_x·f_y] over the core (Eqn 3); for equal
    parameters it reduces to [((M+B)/2)²] (Eqn 4).  Separability gives
    [alpha = mean(f_x) · mean(f_y) = (M_x+B_x)/2 · (M_y+B_y)/2]. *)

val weight : t -> core_w:float -> core_h:float -> x:float -> y:float -> float
(** [f_x(x) · f_y(y)]. *)
