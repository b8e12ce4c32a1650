type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let to_string v =
  let b = Buffer.create 128 in
  let str s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  in
  let seq opening closing item l =
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        item x)
      l;
    Buffer.add_char b closing
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Num f ->
        if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
        else if Float.is_nan f then str "nan"
        else str (if f > 0.0 then "inf" else "-inf")
    | Str s -> str s
    | List l -> seq '[' ']' go l
    | Obj fs ->
        seq '{' '}'
          (fun (k, v) ->
            str k;
            Buffer.add_char b ':';
            go v)
          fs
  in
  go v;
  Buffer.contents b
