(** The range-limiter window (Sec 3.2.2) and displacement-point selection
    (Sec 3.2.3).

    At low temperatures only short moves have a reasonable acceptance
    probability, so the candidate location for a displaced cell is confined
    to a window centered on the cell whose span shrinks with the logarithm
    of T:

    {v W_x(T) = W_x∞ · ρ^log10(T) / λ,   λ = ρ^log10(T∞) v}

    (Eqns 12–14).  ρ = 4 gave both the lowest final TEIL and the lowest
    residual overlap.  The window never shrinks below [min_window] grid
    units ({!min_span} in the flow); reaching that span is stage 1's
    stopping criterion.

    The selector [D_s] restricts the step to multiples of [W/6] with factors
    in {-3..3} (48 candidate points); [D_r] picks uniformly in the window
    and is kept for the Sec 3.2.3 ablation (22 % more residual overlap). *)

type t
(** A limiter remembers the window of the last temperature it served, so
    the selectors compute it once per temperature.  Use one limiter per
    domain. *)

val create :
  rho:float -> t_inf:float -> wx_inf:float -> wy_inf:float -> min_window:int -> t
(** [wx_inf]/[wy_inf] are the window spans at [T∞] — typically twice the
    core spans, "extending beyond the core area". *)

val min_span : int
(** The window span that ends stage 1: 6 grid units (Sec 3.2.3). *)

val of_core : rho:float -> t_inf:float -> core:Twmc_geometry.Rect.t -> t
(** The flow's limiter: spans of twice the core's at [T∞], never below
    {!min_span}. *)

val window : t -> temp:float -> float * float
(** [(W_x(T), W_y(T))], each clamped to at least [min_window]. *)

val at_min_span : t -> temp:float -> bool
(** True when both spans have reached [min_window] — the stage-1 stopping
    criterion. *)

val t_for_window_fraction : t -> mu:float -> float
(** Eqns 25–28: the temperature [T'] at which the window is the fraction
    [mu] of its [T∞] span — stage 2 starts here (μ = 0.03). *)

val select_ds : Twmc_sa.Rng.t -> t -> temp:float -> int * int
(** A [D_s] step [(dx, dy)]: both components multiples of a sixth of the
    window span, not both zero. *)

val select_dr : Twmc_sa.Rng.t -> t -> temp:float -> int * int
(** A [D_r] step: uniform in the window, not (0, 0). *)

val select :
  Params.displacement_selector -> Twmc_sa.Rng.t -> t -> temp:float -> int * int
