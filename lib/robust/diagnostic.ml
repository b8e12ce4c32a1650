type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  entity : string;
  message : string;
  file : string option;
  line : int option;
}

let severity_of_code code =
  if code = "" then Info
  else
    match code.[0] with 'E' | 'P' -> Error | 'W' -> Warning | _ -> Info

let make ?file ?line ?(entity = "") ?severity ~code message =
  let severity =
    match severity with Some s -> s | None -> severity_of_code code
  in
  { code; severity; entity; message; file; line }

let of_triple ?file (code, entity, message) = make ?file ~entity ~code message

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds

let fatal ~strict ds =
  List.filter (fun d -> is_error d || (strict && d.severity = Warning)) ds

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp ppf d =
  (match (d.file, d.line) with
  | Some f, Some l -> Format.fprintf ppf "%s:%d: " f l
  | Some f, None -> Format.fprintf ppf "%s: " f
  | None, _ -> ());
  Format.fprintf ppf "%s[%s]" (severity_string d.severity) d.code;
  if d.entity <> "" then Format.fprintf ppf " %s" d.entity;
  Format.fprintf ppf ": %s" d.message

let to_string d = Format.asprintf "%a" pp d
