(** The [generate] function of Sec 3.2.1.

    Each call makes one top-level attempt: with probability [p]
    (where [r = p/(1-p)] is the configured displacement:interchange ratio)
    a single-cell displacement, otherwise a pairwise interchange.  The
    paper's rescue ladder is followed exactly:

    - a rejected displacement is retried at the same target with the cell's
      aspect ratio inverted (Fig 2), and failing that, a random in-place
      orientation change is attempted;
    - a rejected interchange is retried with both cells' aspect ratios
      inverted;
    - after the displacement ladder on a custom cell, one pin-placement
      move is attempted per uncommitted pin, followed by one aspect-ratio
      (variant) change attempt.

    All acceptance decisions are Metropolis at the given temperature. *)

val n_classes : int
(** Number of move classes for the per-class efficacy counters below. *)

val class_name : int -> string
(** ["displace"], ["displace_inverted"], ["orient"], ["interchange"],
    ["interchange_inverted"], ["pin"], ["variant"] — in index order;
    raises [Invalid_argument] outside [0 .. n_classes-1]. *)

type stats = {
  mutable attempts : int;  (** Top-level generate calls. *)
  mutable displacements : int;  (** Accepted plain displacements. *)
  mutable aspect_rescues : int;  (** Displacements saved by aspect inversion. *)
  mutable orient_changes : int;  (** Accepted in-place orientation changes. *)
  mutable interchanges : int;  (** Accepted interchanges (plain or rescued). *)
  mutable interchange_rescues : int;
  mutable pin_moves : int;  (** Accepted pin (group) re-assignments. *)
  mutable variant_changes : int;  (** Accepted aspect-ratio/instance changes. *)
  class_attempts : int array;
      (** Metropolis trials per move class, indexed as {!class_name};
          counts every trial in the rescue ladder, unlike the aggregate
          fields above which count accepted top-level outcomes. *)
  class_accepts : int array;
  class_dcost : float array;  (** Summed Δcost of accepted trials, per class. *)
}

val make_stats : unit -> stats

type ctx

val make_ctx :
  ?refine:bool ->
  placement:Placement.t ->
  limiter:Range_limiter.t ->
  stats:stats ->
  unit ->
  ctx
(** The full move set of stage 1 by default.  Stage 2 passes
    [~refine:true], the move set of Sec 4.3: new states come only from
    single-cell displacements (no aspect-ratio rescue, no orientation
    change) and pin moves — no interchange and no variant change —
    because orientation and aspect-ratio changes invalidate the per-edge
    interconnect areas. *)

val placement : ctx -> Placement.t
val limiter : ctx -> Range_limiter.t
val stats : ctx -> stats

val with_limiter : ctx -> Range_limiter.t -> ctx
(** The same move set, drawing displacement targets from another window;
    it shares the placement and the stats. *)

val generate : ctx -> Twmc_sa.Rng.t -> temp:float -> unit
(** One top-level attempt, mutating the placement in place. *)
