(** The fuzzing campaign driver: generate cases, run them, shrink and
    persist every failure. *)

type failure_record = {
  case : Fuzz_case.t;  (** As originally generated. *)
  shrunk : Fuzz_case.t;  (** Minimized while preserving [key]. *)
  key : string;
  kinds : Runner.failure_kind list;
  path : string option;  (** Where the reproducer was saved, if anywhere. *)
}

type report = {
  iters_run : int;
  clean : int;
  degraded : int;
  invalid : int;
  timed_out : int;
  rejected : int;
  constrained : int;
      (** Cases whose mutation list injected placement constraints. *)
  failures : failure_record list;
  elapsed_s : float;
}

val campaign :
  ?corpus_dir:string ->
  ?time_limit_s:float ->
  ?run:(Fuzz_case.t -> Runner.outcome) ->
  ?progress:(int -> Fuzz_case.t -> Runner.outcome -> unit) ->
  seed:int ->
  iters:int ->
  unit ->
  report
(** Run up to [iters] random cases from a campaign rng seeded with [seed];
    stop early when [time_limit_s] expires (raises [Invalid_argument] when
    it is NaN, which never would).  Each failing case is shrunk
    (re-running through [run], default {!Runner.run}) and saved to
    [corpus_dir] when given.  Deterministic for a fixed [(seed, iters)]
    without a time limit. *)

val pp_report : Format.formatter -> report -> unit
