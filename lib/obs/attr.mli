(** Attribute key/value pairs carried by trace events. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type t = (string * value) list
