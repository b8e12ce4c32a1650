(** Target core-area determination (Sec 2.2, "Determining the Core Area").

    The wiring area cannot be known before placement, and the channel width
    [C_w] itself depends on the core dimensions through the expected total
    interconnect length — so the initial core is found by fixed-point
    iteration: guess a core, compute the Eqn 5 center expansion, grow every
    cell's bounding box by it, and resize the core to hold the grown cells
    at the requested aspect ratio.  Convergence is fast (the map is nearly
    affine in the linear dimension). *)

type result = {
  core_w : int;
  core_h : int;
  expansion : int;  (** The Eqn 5 uniform expansion at the fixed point. *)
  iterations : int;
}

val determine :
  ?beta:float ->
  ?aspect:float ->
  ?fill_target:float ->
  Twmc_netlist.Netlist.t ->
  result
(** [aspect] is core width/height (default 1.0).  [fill_target] is the
    fraction of the core the expanded cells should occupy (default 0.85 —
    leaving slack lets the annealer resolve overlap without pushing cells
    over the boundary).  Raises [Invalid_argument] on an empty netlist. *)
