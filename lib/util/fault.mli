(** Deterministic fault injection (codes G4xx exercise, chaos campaigns).

    A {e fault site} is a named point in the flow ([point "stage1.replica"],
    [io "io.write"], ...) that, when the injector is armed, counts one hit
    and consults the armed {e plan}: a list of rules, each firing a fault of
    a given {!kind} on the [nth] hit of the sites matching its pattern.
    Plans are plain data, so a whole chaos campaign is reproducible from the
    single seed that generated its plans.

    Disabled-path discipline (same contract as [Twmc_obs]): when the
    injector is disarmed every entry point is one atomic load and a branch —
    no allocation, no locking — so production flows pay nothing for the
    instrumentation.

    Concurrency: sites fire from worker domains too ([pool.task],
    [router.net] at [--jobs N]); hit counting is serialized under one mutex,
    so a plan fires exactly once per rule regardless of interleaving.  At
    [jobs = 1] the hit order — and therefore the whole campaign — is fully
    deterministic. *)

type kind =
  | Exn  (** Raise {!Injected} at the site: a stage failure. *)
  | Abort
      (** Raise {!Abort}: simulated process death.  Never contained by the
          guards — it propagates like [Out_of_memory] so kill-and-resume
          tests can end a flow from inside. *)
  | Deadline
      (** Latch the simulated wall-clock expiry: from this hit on,
          [deadline_pending ()] is true and every guard reports expired. *)
  | Torn_write
      (** [io] sites only: truncate the write mid-stream and simulate a
          crash (raise {!Injected}, leave the partial temp file behind). *)
  | Short_write
      (** [io] sites only: silently truncate the write, exercising the
          writer's short-write detection. *)
  | Io_error  (** Raise a transient [Sys_error] at the site. *)

type rule = {
  site : string;
      (** Exact site name, or a prefix pattern ending in ['*']
          (["stage1.*"]). *)
  nth : int;  (** Fire on the [nth] matching hit (1-based). *)
  kind : kind;
}

type plan = rule list

exception Injected of { site : string; kind : kind }
(** A deliberately injected, containable failure.  The guards treat it like
    any other stage exception (G400 diagnostics, retries, rollback). *)

exception Abort of string
(** Simulated process death; must never be contained.  Every exception
    filter that re-raises [Out_of_memory]/[Stack_overflow]/[Sys.Break] must
    re-raise this too. *)

val arm : plan -> unit
(** Install [plan] and reset all hit counters, the fired log and the
    deadline latch.  Arming replaces any previous plan. *)

val disarm : unit -> unit
(** Drop the plan and reset all state; every entry point returns to the
    one-branch disabled path. *)

val armed : unit -> bool

val point : string -> unit
(** Count a hit at a generic code site.  May raise {!Injected}, {!Abort},
    a [Sys_error] ([Io_error] rules) or latch the deadline; [Torn_write]
    and [Short_write] rules are inert at generic sites. *)

type io_fault = No_io_fault | Io_torn | Io_short | Io_transient

val io : string -> io_fault
(** Count a hit at an I/O site and return the write fault the caller must
    enact ({!io_fault} keeps the mechanics — truncation, cleanup — in the
    writer, which knows its own file layout).  [Exn]/[Abort]/[Deadline]
    rules behave as at {!point} sites. *)

val deadline_pending : unit -> bool
(** One atomic load; true once a [Deadline] rule has fired (until
    {!disarm}/{!arm}).  Polled by [Guard.expired]. *)

val fired : unit -> (string * kind) list
(** The faults fired since the last {!arm}, in firing order. *)

val plan_to_string : plan -> string
(** One rule per line; round-trips through {!plan_of_string}. *)

val plan_of_string : string -> (plan, string) result
val pp_plan : Format.formatter -> plan -> unit
