(** Structured, severity-tagged diagnostics.

    Every validation layer in the package (netlist lint, inter-stage
    invariant checks, the guarded flow driver, the CLI) reports problems as
    values of this one type instead of raising ad-hoc
    [Invalid_argument]/[Failure]/[Not_found].

    Codes are stable identifiers documented in the README:
    - [P0xx] — I/O and parse failures ([P000] unreadable file, [P001]
      syntax error);
    - [E1xx] — netlist structure errors (fatal in any mode);
    - [W2xx] — netlist lint warnings (fatal only under [--strict]);
    - [I3xx] — inter-stage invariant violations (recoverable: the guarded
      flow repairs or rolls back and degrades);
    - [G4xx] — flow guard events (stage failure, timeout, retry, rollback). *)

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  entity : string;  (** Offending cell/net/stage name; [""] when global. *)
  message : string;
  file : string option;
  line : int option;
}

val make :
  ?file:string -> ?line:int -> ?entity:string -> ?severity:severity ->
  code:string -> string -> t
(** When [severity] is omitted it is inferred from the code's first letter:
    [E]/[P] → [Error], [W] → [Warning], anything else → [Info]. *)

val of_triple : ?file:string -> string * string * string -> t
(** Map a [(code, entity, message)] triple (the dependency-free shape
    {!Twmc_netlist.Builder.lint_specs} emits) onto a diagnostic. *)

val is_error : t -> bool
val has_errors : t list -> bool

val fatal : strict:bool -> t list -> t list
(** The diagnostics that stop a run: errors always; warnings too when
    [strict]. *)

val pp : Format.formatter -> t -> unit
(** One line: [file:line: severity[CODE] entity: message] with the
    location/entity parts elided when absent. *)

val to_string : t -> string
