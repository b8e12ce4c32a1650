(** Placement checkpointing: in-memory snapshots and crash-durable files.

    A snapshot ({!t}) is a deep copy of everything that defines a placement
    configuration — per-cell position/orientation/variant/pin-site
    assignment, the core rectangle, the expansion model and the [p2]
    normalization — taken through the public {!Twmc_place.Placement} API so
    it stays valid across representation changes.  The guarded flow driver
    captures one after every successful stage and rolls back to it when a
    later stage throws, regresses, or times out.

    A {!durable} checkpoint wraps a snapshot with the flow position (stage
    tag, RNG cursor, seed, stage-1 summary) and round-trips through a
    versioned on-disk format written atomically via
    {!Twmc_util.Atomic_io}:

    {v
    twmc-checkpoint v1
    netlist <md5 of the netlist's canonical text>
    stage stage1 | stage2:<k>
    payload <byte length> <md5 of the payload>
    <marshaled payload bytes>
    v}

    {!load} refuses (with a typed [Error]) any file whose version, netlist
    fingerprint, payload length/MD5, stage tag or parameter fingerprint does
    not match — a torn, truncated, or mismatched checkpoint can never be
    resumed silently. *)

type t

val capture : Twmc_place.Placement.t -> t
(** Also records the TEIL and total cost at capture time. *)

val restore : Twmc_place.Placement.t -> t -> unit
(** Restores the captured configuration into the placement (which must be
    over the same netlist) and recomputes all caches. *)

val teil : t -> float

val core_of : t -> Twmc_geometry.Rect.t
(** The core rectangle recorded in the snapshot (useful to build a fresh
    placement to restore into). *)

(** {1 Durable checkpoints} *)

type stage =
  | Stage1_done  (** Taken right after stage 1 committed its result. *)
  | Stage2_iteration of int
      (** Taken at the boundary after stage-2 refinement [k] executed;
          resume re-enters at iteration [k + 1]. *)

(** Stage-1 result metadata carried through a resume so the reconstructed
    {!Twmc_place.Stage1.result} reports the original anneal's figures. *)
type s1_summary = {
  s1_teil : float;
  s1_c1 : float;
  s1_residual_overlap : float;
  s1_chip : Twmc_geometry.Rect.t;
  s1_core : Twmc_geometry.Rect.t;
  s1_t_inf : float;
  s1_s_t : float;
  s1_temperatures : int;
}

type durable = {
  stage : stage;
  seed_used : int;  (** The (possibly retry-perturbed) stage-1 seed. *)
  rng_cursor : string;
      (** Serialized {!Twmc_sa.Rng} state at the boundary, captured before
          any post-boundary draw — resuming replays the identical stream. *)
  snapshot : t;
  dynamic_expander : bool;
      (** The snapshot was taken under a [Dynamic] expander (stage 1); it is
          stored as a marker and must be reconstructed deterministically
          from (params, netlist, stage-1 core) before {!restore} — see
          {!with_expander}. *)
  s1 : s1_summary;
}

val durable :
  stage:stage ->
  seed_used:int ->
  rng_cursor:string ->
  s1:s1_summary ->
  Twmc_place.Placement.t ->
  durable
(** Capture the placement together with the flow position.  A [Dynamic]
    expander is reduced to the {!field-dynamic_expander} marker (its lookup
    structures are derivable, not data). *)

val with_expander : durable -> Twmc_place.Placement.expander -> durable
(** Replace the snapshot's expander — used at resume to graft the
    reconstructed [Dynamic] estimator back in before {!restore}. *)

val save :
  path:string ->
  netlist:Twmc_netlist.Netlist.t ->
  params:Twmc_place.Params.t ->
  durable ->
  unit
(** Write the checkpoint atomically (temp file + rename, fsync'd).  Raises
    [Sys_error] on I/O failure — callers treat a failed write as a warning
    and keep the flow running. *)

val load :
  path:string ->
  netlist:Twmc_netlist.Netlist.t ->
  params:Twmc_place.Params.t ->
  (durable, string) result
(** Read and validate a checkpoint.  [Error] carries a human-readable
    reason: unreadable file, unrecognized version, malformed header,
    truncated or corrupt payload (length/MD5), netlist mismatch, or
    parameter mismatch.  Never raises on corrupt input. *)
