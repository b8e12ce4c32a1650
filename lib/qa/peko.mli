(** Harness-facing face of the constructed-optima (PEKO) benchmarks.

    {!Twmc_workload.Peko} builds the netlists and their optimality
    certificates; this module names the standard cases and persists a
    netlist+certificate pair side by side on disk.  {!Oracle} checks a
    placement against a certificate. *)

val spec_of_scale :
  ?locality:float ->
  ?utilization:float ->
  int ->
  Twmc_workload.Peko.spec
(** The standard sweep case at [n] cells, named ["peko<n>"], with 1.6
    nets per cell; locality defaults to 0.7 and utilization to 0.5 — the
    {!Twmc_workload.Peko.default_spec} knee where the bound is tight but
    the instance is not trivial. *)

val default_scales : int list
(** The per-PR sweep sizes: [[25; 49; 100]]. *)

val save :
  dir:string ->
  Twmc_netlist.Netlist.t ->
  Twmc_workload.Peko.certificate ->
  string
(** Writes ["<name>.twn"] (the netlist) and ["<name>.peko"] (the
    certificate) atomically under [dir], creating it if needed; returns the
    certificate path. *)

val load :
  string -> (Twmc_netlist.Netlist.t * Twmc_workload.Peko.certificate, string) result
(** [load path] reads a certificate written by {!save} and the netlist
    sitting next to it (same basename, [.twn] extension). *)
