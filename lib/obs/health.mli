(** Anneal-health analytics: a pure fold over a loaded trace that derives
    the schedule-dynamics diagnostics Sechen's flow lives by — the
    acceptance-rate curve held against the paper's target profile, per
    move-class attempt/accept/Δcost efficacy, the range-limiter window
    trajectory, dynamic-estimator convergence, and router overflow decay —
    plus a list of human-readable findings when any of them is
    off-profile.  Backing for [twmc report health]. *)

type temp_sample = {
  t : float;
  acceptance : float;  (** Measured acceptance rate at this temperature. *)
  target : float;
      (** Reference profile: a half-cosine from ~1 at T∞ to ~0 at
          freezing, evaluated at this temperature's index. *)
  cost : float;
  wx : float;  (** Range-limiter window (x), nan when absent. *)
  wy : float;
  est : float;
      (** Average effective (interconnect-expanded) cell area feeding the
          schedule, nan for traces that predate the attr. *)
}

type class_stat = {
  cls : string;  (** Move-class name ({!Twmc_place.Moves.class_name}). *)
  attempts : int;
  accepts : int;
  dcost : float;  (** Summed Δcost of the accepted moves. *)
}

type overflow_sample = Report.route_pass = {
  pass : int;
  before : float;
  after : float;
  length : float;
  nets : float;
}
(** One routing pass, as {!Report.route_passes} reads it. *)

type t = {
  replica : int option;  (** Winning replica, when identifiable. *)
  temps : temp_sample list;  (** Stage-1, winning replica only. *)
  s2_temps : temp_sample list;
  classes : class_stat list;  (** Stage-1, winning replica only. *)
  s2_classes : class_stat list;
  overflow : overflow_sample list;
  findings : string list;  (** Empty when the run anneals on-profile. *)
}

val target_acceptance : index:int -> n:int -> float
(** The reference acceptance profile at temperature [index] of [n]. *)

val of_events : Report.event list -> t
(** Derives the health summary from a loaded trace.  Total: traces missing
    any instrument simply yield empty sections. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Report.json
