type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type t = (string * value) list

let int i = Int i
let float f = Float f
let bool b = Bool b
let str s = Str s
