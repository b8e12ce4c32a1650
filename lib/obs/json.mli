(** JSON values and the one printer every JSON the program writes goes
    through: trace lines, metrics, health, bench snapshots and quality-gap
    sweeps.  {!Report.parse_json} reads them back. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Printed exactly; the parser reads it back as [Num]. *)
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact text in the trace's layout: no whitespace, keys in the order
    given, integers exact, finite floats as [%.17g] (which round-trips),
    and non-finite floats as the strings ["nan"], ["inf"] and ["-inf"], so
    every written document parses. *)
