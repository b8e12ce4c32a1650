(** Tunable parameters of the TimberWolfMC flow, with the paper's published
    defaults.  Each field cites the section that fixes its value. *)

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
  kappa : int;  (** Pin-site penalty offset κ (Eqn 10; the implementation uses 5). *)
  p3 : float;  (** Weight of the pin-site penalty [C₃] (1.0 in the paper). *)
  p4 : float;
      (** Weight of the placement-constraint penalty [C₄] (not in the
          paper; only consulted when the netlist carries constraints). *)
  beta : float;
      (** Optimized-over-random length ratio of the [N_L] estimator
          (substitution for dissertation Ch 5; default 0.35). *)
  mu : float;
      (** Stage-2 initial window as a fraction of the core span (Sec 4.3,
          μ = 0.03). *)
  min_window : int;
      (** Window span ending stage 1 (Sec 3.2.3: 6 grid units). *)
  displacement_selector : displacement_selector;
  n_p2_samples : int;
      (** Random configurations sampled to normalize [p₂] (Sec 3.1.2). *)
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
  fill_target : float;  (** Core fill fraction for initial sizing. *)
  core_aspect : float;  (** Requested core width/height. *)
  seed : int;
}

val default : t
