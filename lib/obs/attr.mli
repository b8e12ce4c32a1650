(** Attribute key/value pairs carried by trace events. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type t = (string * value) list

val int : int -> value
val float : float -> value
val bool : bool -> value
val str : string -> value
