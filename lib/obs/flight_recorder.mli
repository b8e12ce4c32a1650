(** The crash flight recorder: a process-global, fixed-size ring of the
    most recent notable events (stage boundaries, temperatures, routing
    passes, diagnostics, fault sites).

    Unlike the trace ({!Sink}) it is {e always on}: a note costs one mutex
    round-trip and writes into preallocated arrays, so recording is
    allocation-bounded, and its call sites are per-temperature /
    per-refinement / per-pass — never per-move — so the per-move
    zero-allocation contract of the disabled trace path is preserved.  When
    a resilient flow ends on a non-Clean status, crashes, or is killed by
    an injected {!Twmc_util.Fault.Abort}, the driver dumps the ring to a
    JSONL file (schema {!Sink.schema_version}, meta name ["twmc-flight"])
    whose last lines name the failing site. *)

val capacity : int
(** Ring size (512); the oldest note is overwritten past that. *)

val note : ?i:int -> ?f:float -> ?detail:string -> string -> unit
(** [note site] records one event: a site name plus up to one integer, one
    float and one short string of context.  Disabled recorders cost one
    branch; [note site] with no optional arguments allocates nothing either
    way.  Thread-safe (mutex-serialized). *)

val set_enabled : bool -> unit
(** Default [true].  Disabling makes {!note} a single branch. *)

val enabled : unit -> bool

type entry = {
  seq : int;  (** Absolute note number (monotonic across wrap-around). *)
  t_ns : int;
  site : string;
  i : int option;
  f : float option;
  detail : string option;
}

val entries : unit -> entry list
(** Current ring contents, oldest first. *)

val recorded : unit -> int
(** Entries currently held (at most {!capacity}). *)

val dropped : unit -> int
(** Notes overwritten by wrap-around since the last {!clear}. *)

val clear : unit -> unit

val dump : string -> unit
(** Writes the ring to [path] as a JSONL trace: a ["twmc-flight"] meta
    line (carrying [recorded]/[dropped] attrs) followed by one point per
    entry with [seq]/[i]/[f]/[detail] attrs, which passes
    {!Report.validate}.  Best-effort: I/O errors are swallowed so a failing
    disk never masks the crash being recorded. *)
