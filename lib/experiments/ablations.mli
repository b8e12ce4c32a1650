(** Ablations of stage-1 design choices, reproducing the in-text
    experiments:

    - §3.2.3: the structured displacement selector [D_s] versus uniform
      [D_r] — the paper measured ≈22 % lower residual overlap with [D_s]
      at nearly equal TEIL;
    - §3.1.2: sensitivity to the overlap-normalization target η — flat over
      [0.25, 1.0], degrading outside;
    - §3.2.2: the range-limiter base ρ — final TEIL flat for 1 ≤ ρ ≤ 4,
      residual overlap falling as ρ grows (more local moves at a given T). *)

type point = { label : string; avg_teil : float; avg_residual_overlap : float }

val run_ds_vs_dr :
  ?out_csv:string -> Profile.t -> Format.formatter -> point list

val run_eta : ?out_csv:string -> Profile.t -> Format.formatter -> point list
(** Sweeps η over 0.1, 0.25, 0.5, 1 and 2. *)

val run_rho : ?out_csv:string -> Profile.t -> Format.formatter -> point list
(** Sweeps ρ over 1, 2, 4, 7 and 10. *)
