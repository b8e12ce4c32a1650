(** A fuzz case: the complete, serializable recipe for one flow run.

    A case captures everything needed to reproduce a run bit-for-bit — the
    synthetic-circuit spec, the adversarial mutations layered on top, the
    annealing effort, the core override and the execution knobs — in a
    small record with a stable textual form.  The corpus stores these
    files; the shrinker transforms them; [twmc qa replay] re-runs them. *)

type t = {
  seed : int;  (** Drives generation, mutation and the flow itself. *)
  n_cells : int;
  n_nets : int;
  n_pins : int;
  frac_custom : float;
  frac_rectilinear : float;
  mutations : Twmc_workload.Mutate.t list;  (** Applied left to right. *)
  replicas : int;
  jobs_check : bool;
      (** Also run at [--jobs 2] and require a bit-identical result. *)
  core_scale : float;
      (** Scale on the auto-determined core; [0.] is a degenerate core. *)
  a_c : int;  (** Annealing effort (attempted moves per cell per T). *)
  time_budget_s : float option;
  peko : int;
      (** When positive: generate a constructed-optima (PEKO) netlist of
          this many cells instead of the [Synth] circuit, and the sizing
          fields above are ignored.  {!peko_certificate} then exposes the
          known-optimal TEIL for the runner's lower-bound oracle. *)
}

val default : t
(** A small clean circuit: 8 cells, no mutations, no budget. *)

val generate : rng:Twmc_sa.Rng.t -> t
(** Draw a random case: sizes small enough that a run takes well under a
    second, mutations and hostile knobs sampled with low probability each
    so most cases stay near the interesting boundary between clean and
    degenerate. *)

val to_string : t -> string
(** Stable [key value] lines; round-trips with {!of_string}. *)

val of_string : string -> (t, string) result
(** [Error] names the key and the value of the first field that does not
    parse or is out of range: [a_c] and [replicas] below 1, [peko] below 0,
    [frac_custom] or [frac_rect] outside [0, 1] or NaN, a negative or
    non-finite [core_scale], or a [budget] that is not a finite positive
    number of seconds. *)

val constrained : t -> bool
(** Whether any of the case's mutations injects placement constraints
    (blockages, keepouts, fixed/region locks, boundary, align/abut,
    density caps). *)

val netlist : t -> (Twmc_netlist.Netlist.t, string) result
(** Realize the case: generate the synthetic circuit, then apply the
    mutations.  [Error] when the mutated structure fails netlist
    validation (rejected by construction — not a flow failure). *)

val params : t -> Twmc_place.Params.t

val core : t -> Twmc_netlist.Netlist.t -> Twmc_geometry.Rect.t option
(** The core override implied by [core_scale]; [None] at scale 1. *)

val peko_certificate : t -> Twmc_workload.Peko.certificate option
(** The optimality certificate of the case's constructed-optima netlist —
    [None] unless [peko > 0] with no mutations and an unscaled core (the
    certificate is a TEIL lower bound only for the pristine instance:
    mutations change the netlist, and a squeezed core forces overlap,
    where the packing argument no longer applies). *)

val pp : Format.formatter -> t -> unit
