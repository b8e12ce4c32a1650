(** Harness-facing face of the constructed-optima (PEKO) benchmarks.

    {!Twmc_workload.Peko} builds the netlists and their optimality
    certificates; this module names the standard cases, persists a
    netlist+certificate pair side by side on disk, and re-exposes the
    {!Oracle} certificate pack under the harness vocabulary. *)

val spec_of_scale :
  ?locality:float ->
  ?utilization:float ->
  ?nets_per_cell:float ->
  int ->
  Twmc_workload.Peko.spec
(** The standard sweep case at [n] cells, named ["peko<n>"]; locality
    defaults to 0.7, utilization to 0.5, nets per cell to 1.6 — the
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

val verify :
  Twmc_netlist.Netlist.t -> Twmc_workload.Peko.certificate ->
  Oracle.failure list
(** {!Oracle.check_certificate}. *)
