(** Figure 3 — normalized average final TEIL versus the ratio [r] of
    single-cell displacements to pairwise interchanges.

    The paper's finding: a wide flat optimum — any [r] in [7, 15] is within
    one percent of the best; quality degrades for very small r (too few
    exploratory displacements) and very large r (no interchanges).  Runs
    stage 1 on ≈25-cell circuits over several seeds per r value and prints
    the TEIL normalized to the best r. *)

type point = { r : float; avg_teil : float; normalized : float }

val run : ?out_csv:string -> Profile.t -> Format.formatter -> point list
(** Sweeps r over 1, 2, 4, 7, 10, 15, 25 and 50. *)
