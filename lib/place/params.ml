type displacement_selector = Ds | Dr

type t = {
  r_ratio : float;
  a_c : int;
  rho : float;
  eta : float;
  displacement_selector : displacement_selector;
  refinement_iterations : int;
  m_routes : int;
  route_effort : int;
  seed : int;
}

let default =
  { r_ratio = 10.0;
    a_c = 400;
    rho = 4.0;
    eta = 0.5;
    displacement_selector = Ds;
    refinement_iterations = 3;
    m_routes = 20;
    route_effort = 12;
    seed = 1 }
