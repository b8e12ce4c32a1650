(** The quality-gap sweep: run every placement algorithm over the
    constructed-optima (PEKO) cases and measure how far each lands from the
    certified optimum.

    Because each case carries a {e known-optimal} TEIL, quality becomes an
    absolute number: the ratio measured ÷ optimal, which is at least 1 for
    any overlap-free result.  The sweep's ratios are gated against a
    blessed tolerance band in [test/golden/peko.tolerance] by
    [twmc qa gap] — the standing regression oracle every future quality or
    performance change must not regress (ROADMAP item 5).

    Everything here is deterministic in the seed: no wall-clock enters the
    points or their JSON, so a sweep re-run on the same commit is
    byte-identical and band comparisons are meaningful. *)

type point = {
  algo : string;
  case_name : string;
  n_cells : int;
  optimal : float;  (** Certified-optimal TEIL of the case. *)
  measured : float;  (** The algorithm's TEIL ([nan] when it failed). *)
  ratio : float;  (** [measured /. optimal]; [nan] when it failed. *)
  status : string;  (** ["ok"], or ["error: ..."] when the run raised. *)
}

type sweep = { seed : int; a_c : int; points : point list }

val run :
  ?algos:string list ->
  ?a_c:int ->
  ?progress:(string -> unit) ->
  scales:int list ->
  seed:int ->
  unit ->
  sweep
(** Generates one certified case per scale (the certificate is re-verified
    with {!Oracle.check_certificate}; a violation turns into an ["error:"]
    point rather than an exception) and measures every requested algorithm
    on it.  [a_c] (default 8) throttles the annealing effort — the gate
    cares about reproducible quality per effort level, not peak quality, so
    the band is blessed at the same [a_c] the sweep runs at.  [progress] is
    called once per (case, algorithm) with a one-line description. *)

val to_json_string : sweep -> string
(** Schema ["twmc-peko-gap v1"]: seed, a_c, and one object per point; a
    failed point's [nan] measurement and ratio are written as the string
    ["nan"]. *)

(** {1 Tolerance bands} *)

type band = { b_algo : string; b_n_cells : int; max_ratio : float }

val bands_to_string : band list -> string
val bands_of_string : string -> (band list, string) result
(** Line-oriented ["twmc-peko-tolerance v1"] format:
    [algo n_cells max_ratio] per line. *)

val bless : ?margin:float -> sweep -> band list
(** One band per successful point: [max_ratio = ratio ·  margin] (margin
    default 1.25 — headroom for seed-to-seed variation when the band is
    re-blessed at a new effort level or scale list).  Raises
    [Invalid_argument], naming the margin, unless it is finite and at
    least 1: a smaller one blesses a band the sweep itself fails, and a
    NaN one a band that does not parse back. *)

val scales_of_bands : band list -> int list
(** Sorted distinct scales a band list covers (the gate's default sweep). *)

val algos_of_bands : band list -> string list
(** Distinct algorithms a band list covers, in run order: ["stage1"],
    ["stage2"], then the [Twmc_baselines.comparators] entries. *)

val gate : sweep -> band list -> string list
(** The quality gate; each returned string is a violation:
    - a point whose status is not ["ok"],
    - a ratio below [1 − 1e-9] (the certified optimum is a proven lower
      bound, so this means the certificate or the measurement is broken),
    - a ratio above its blessed [max_ratio],
    - a point with no covering band, or a band whose point never ran
      (coverage loss in either direction).
    Empty means the gate passes. *)
