type displacement_selector = Ds | Dr

type t = {
  r_ratio : float;
  a_c : int;
  rho : float;
  eta : float;
  kappa : int;
  p3 : float;
  p4 : float;
  beta : float;
  mu : float;
  min_window : int;
  displacement_selector : displacement_selector;
  n_p2_samples : int;
  refinement_iterations : int;
  m_routes : int;
  route_effort : int;
  fill_target : float;
  core_aspect : float;
  seed : int;
}

let default =
  { r_ratio = 10.0;
    a_c = 400;
    rho = 4.0;
    eta = 0.5;
    kappa = 5;
    p3 = 1.0;
    p4 = 1.0;
    beta = 0.35;
    mu = 0.03;
    min_window = 6;
    displacement_selector = Ds;
    n_p2_samples = 20;
    refinement_iterations = 3;
    m_routes = 20;
    route_effort = 12;
    fill_target = 0.75;
    core_aspect = 1.0;
    seed = 1 }
