type kind = Exn | Abort | Deadline | Torn_write | Short_write | Io_error

type rule = { site : string; nth : int; kind : kind }
type plan = rule list

exception Injected of { site : string; kind : kind }
exception Abort of string

type io_fault = No_io_fault | Io_torn | Io_short | Io_transient

(* All slow-path state lives behind [armed_flag]; the mutex serializes hit
   counting across domains.  [deadline] is its own atomic so the guards can
   poll it without taking the lock. *)
type armed_rule = { rule : rule; mutable fired : bool }

type state = {
  m : Mutex.t;
  mutable rules : armed_rule list;
  counters : (string, int ref) Hashtbl.t;
  mutable log : (string * kind) list;
}

let armed_flag = Atomic.make false
let deadline_latch = Atomic.make false

let st =
  { m = Mutex.create (); rules = []; counters = Hashtbl.create 16; log = [] }

let reset_locked plan =
  st.rules <- List.map (fun rule -> { rule; fired = false }) plan;
  Hashtbl.reset st.counters;
  st.log <- [];
  Atomic.set deadline_latch false

let arm plan =
  Mutex.lock st.m;
  reset_locked plan;
  Atomic.set armed_flag (plan <> []);
  Mutex.unlock st.m

let disarm () =
  Mutex.lock st.m;
  Atomic.set armed_flag false;
  reset_locked [];
  Mutex.unlock st.m

let armed () = Atomic.get armed_flag
let deadline_pending () = Atomic.get deadline_latch

let fired () =
  Mutex.lock st.m;
  let l = List.rev st.log in
  Mutex.unlock st.m;
  l

let matches pattern site =
  String.equal pattern site
  ||
  let n = String.length pattern in
  n > 0
  && pattern.[n - 1] = '*'
  && String.length site >= n - 1
  && String.sub site 0 (n - 1) = String.sub pattern 0 (n - 1)

(* One hit at [site]: bump its counter and fire the first not-yet-fired rule
   whose pattern matches and whose [nth] equals the new count. *)
let hit site =
  Mutex.lock st.m;
  let c =
    match Hashtbl.find_opt st.counters site with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.add st.counters site c;
        c
  in
  incr c;
  let fired_kind =
    List.find_map
      (fun ar ->
        if (not ar.fired) && matches ar.rule.site site && ar.rule.nth = !c
        then begin
          ar.fired <- true;
          st.log <- (site, ar.rule.kind) :: st.log;
          if ar.rule.kind = Deadline then Atomic.set deadline_latch true;
          Some ar.rule.kind
        end
        else None)
      st.rules
  in
  Mutex.unlock st.m;
  fired_kind

let act site = function
  | Exn -> raise (Injected { site; kind = Exn })
  | Abort -> raise (Abort site)
  | Io_error ->
      raise (Sys_error (Printf.sprintf "%s: injected transient I/O error" site))
  | Deadline (* latched in [hit] *) | Torn_write | Short_write -> ()

let point site =
  if Atomic.get armed_flag then
    match hit site with None -> () | Some k -> act site k

let io site =
  if not (Atomic.get armed_flag) then No_io_fault
  else
    match hit site with
    | None -> No_io_fault
    | Some Torn_write -> Io_torn
    | Some Short_write -> Io_short
    | Some Io_error -> Io_transient
    | Some ((Exn | Abort | Deadline) as k) ->
        act site k;
        No_io_fault

(* ------------------------------------------------------- serialization *)

let kind_to_string = function
  | Exn -> "exn"
  | Abort -> "abort"
  | Deadline -> "deadline"
  | Torn_write -> "torn-write"
  | Short_write -> "short-write"
  | Io_error -> "io-error"

let kind_of_string = function
  | "exn" -> Some Exn
  | "abort" -> Some Abort
  | "deadline" -> Some Deadline
  | "torn-write" -> Some Torn_write
  | "short-write" -> Some Short_write
  | "io-error" -> Some Io_error
  | _ -> None

(* ["site@nth:kind"], parseable by [rule_of_string]. *)
let rule_to_string r =
  Printf.sprintf "%s@%d:%s" r.site r.nth (kind_to_string r.kind)

let rule_of_string s =
  match String.index_opt s '@' with
  | None -> None
  | Some i -> (
      let site = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.index_opt rest ':' with
      | None -> None
      | Some j -> (
          let nth = String.sub rest 0 j in
          let kind = String.sub rest (j + 1) (String.length rest - j - 1) in
          match (int_of_string_opt nth, kind_of_string kind) with
          | Some nth, Some kind when nth >= 1 && site <> "" ->
              Some { site; nth; kind }
          | _ -> None))

let plan_to_string plan =
  String.concat "" (List.map (fun r -> rule_to_string r ^ "\n") plan)

let plan_of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match rule_of_string l with
        | Some r -> go (r :: acc) rest
        | None -> Error (Printf.sprintf "malformed fault rule: %s" l))
  in
  go [] lines

let pp_plan ppf plan =
  Format.fprintf ppf "@[<h>%s@]"
    (String.concat " " (List.map rule_to_string plan))
