(** Tunable parameters of the TimberWolfMC flow, with the paper's published
    defaults.  Each field cites the section that fixes its value.  The
    method's constants live in the modules that read them: κ in
    {!Placement}, the minimum window span in {!Range_limiter}, the p₂
    sample count and the initial fill in {!Stage1}, μ in [Stage2] and β
    in {!Twmc_estimator.Wire_estimate}. *)

type displacement_selector =
  | Ds  (** Eqns 15–16: 48 evenly-dispersed candidate points (default). *)
  | Dr  (** Uniformly random point in the window (the Sec 3.2.3 baseline). *)

type t = {
  r_ratio : float;
      (** [r], single-cell displacements per pairwise interchange (Sec 3.2.1,
          Fig 3: any value in [7, 15] is within 1 % of optimum; default 10). *)
  a_c : int;
      (** Attempted moves per cell per temperature (Sec 3.3, Figs 5–6:
          saturates near 400; default 400). *)
  rho : float;
      (** Range-limiter shrink base (Sec 3.2.2; ρ = 4 minimizes both TEIL
          and residual overlap). *)
  eta : float;
      (** Overlap-penalty normalization target: [p₂·C₂ = η·C₁] at [T∞]
          (Sec 3.1.2; performance flat over [0.25, 1.0], default 0.5). *)
  displacement_selector : displacement_selector;
  refinement_iterations : int;
      (** Stage-2 executions of {channel def, global route, refine}
          (Sec 4: three suffice for convergence). *)
  m_routes : int;
      (** Alternative routes stored per net by the global router's phase 1
          (Sec 4.2.1: "typically on the order of 20"). *)
  route_effort : int;
      (** The router's Steiner-enumeration budget factor (expansions =
          effort · M per net); 12 reproduces the paper-quality search,
          lower values trade diversity for speed. *)
  seed : int;
      (** The flow's seed when [Flow.run_resilient] is given none; a
          checkpoint's params fingerprint covers it, so a resume under
          another seed is refused. *)
}

val default : t
