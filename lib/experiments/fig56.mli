(** Figures 5 and 6 — quality versus the inner-loop criterion A_c.

    Fig 5 plots the normalized average final TEIL and Fig 6 the relative
    final chip area (after global routing and refinement) against the number
    of attempts per cell per temperature.  The paper's findings: both
    saturate near A_c ≈ 400; A_c = 25 costs ≈13 % TEIL at 1/16th the CPU
    time (stage-1 time is directly proportional to A_c). *)

type point = {
  a_c : int;
  avg_teil : float;
  norm_teil : float;  (** Fig 5 series. *)
  avg_area : float;
  rel_area : float;  (** Fig 6 series. *)
  avg_time_s : float;  (** The Sec 5 CPU-time observation. *)
}

val run : ?out_csv:string -> Profile.t -> Format.formatter -> point list
(** Sweeps A_c over 10, 25, 50, 100, 200 and 400. *)
