(** Stage guards: wall-clock budgets and exception containment (codes G4xx).

    A guard owns an optional wall-clock deadline for a whole flow.  Stages
    receive a {!should_stop} closure to poll cooperatively (the SA inner
    loops check it every 128 moves) and are run through {!stage}, which
    converts any escaping exception into a [G400] diagnostic instead of
    killing the flow.

    Fault injection: {!expired} also reports true once a
    [Twmc_util.Fault.Deadline] rule has fired, so chaos campaigns can
    simulate budget expiry at an exact execution point without touching the
    clock. *)

type t

val create : ?time_budget_s:float -> unit -> t
(** [time_budget_s] is measured from this call on the monotonic
    {!Twmc_obs.Clock}, so a wall-clock step neither extends nor cuts the
    budget.  Without it, or with [infinity], the guard never expires; a
    budget of 0 or less has expired when [create] returns.

    @raise Invalid_argument when [time_budget_s] is NaN: [now +. nan] is a
    deadline no clock reading reaches. *)

val should_stop : t -> unit -> bool
(** Closure suitable for the [?should_stop] parameter of the annealing
    loops; true once the deadline has passed. *)

val expired : t -> bool
val remaining_s : t -> float option

val sleep_s : float -> unit
(** Block for the given number of seconds (no-op when non-positive); used
    for the retry backoff between seed-perturbed stage-1 attempts. *)

type 'a outcome =
  | Ok of 'a
  | Failed of Diagnostic.t
      (** The stage raised (code [G400]) or the guard was already expired on
          entry (code [G401]). *)

val stage : t -> name:string -> (unit -> 'a) -> 'a outcome
(** Runs the thunk, containing exceptions.  If the guard is already expired
    the thunk is not run at all and a [G401] diagnostic is returned.
    [Out_of_memory] and [Stack_overflow] are re-raised ([Sys.Break] and the
    fault injector's [Abort] too): masking those would hide real resource
    exhaustion or a simulated process death. *)

val timeout_diag : name:string -> Diagnostic.t
(** A [G401] diagnostic noting that [name] was cut short by the budget. *)
