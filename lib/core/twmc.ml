(** TimberWolfMC: macro/custom-cell chip planning, placement, and global
    routing by simulated annealing (reproduction of Sechen, DAC 1988).

    The facade re-exports every sub-library so a downstream user depends
    only on [twmc]:

    - {!Geometry} — rectilinear geometry substrate
    - {!Netlist} — cells, pins, nets, parser/writer
    - {!Sa} — annealing engine and cooling schedules
    - {!Estimator} — dynamic interconnect-area estimation (Sec 2.2)
    - {!Place} — stage-1 placement (Sec 3)
    - {!Channel} — channel definition (Sec 4.1)
    - {!Route} — global routing (Sec 4.2)
    - {!Robust} — diagnostics, lint, invariants, guards, checkpoints
    - {!Util} — atomic file output
    - {!Obs} — structured tracing (spans, points) and the metrics folded
      from it
    - {!Stage2} — placement refinement (Sec 4.3)
    - {!Flow} — the complete two-stage flow *)

module Geometry = Twmc_geometry
module Netlist = Twmc_netlist
module Sa = Twmc_sa
module Estimator = Twmc_estimator
module Place = Twmc_place
module Channel = Twmc_channel
module Route = Twmc_route
module Robust = Twmc_robust
module Util = Twmc_util
module Obs = Twmc_obs
module Stage2 = Stage2
module Flow = Flow
