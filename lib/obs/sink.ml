(* v2 (PR 8): same event shapes as v1, plus the ["twmc-flight"] meta name
   emitted by {!Flight_recorder.to_jsonl}.  v1 traces remain readable — the
   reader rejects only versions newer than this one. *)
let schema_version = 2

type event =
  | Span_begin of {
      id : int;
      parent : int;
      name : string;
      t_ns : int;
      attrs : Attr.t;
    }
  | Span_end of { id : int; name : string; t_ns : int; attrs : Attr.t }
  | Point of { name : string; t_ns : int; attrs : Attr.t }

type chan = { oc : out_channel; mutable closed : bool }

type target =
  | Null
  | Memory of event Queue.t
  | Channel of chan

type t = { target : target; mutex : Mutex.t }

let null = { target = Null; mutex = Mutex.create () }
let enabled t = t.target <> Null

let memory () = { target = Memory (Queue.create ()); mutex = Mutex.create () }

let memory_events t =
  match t.target with
  | Memory q ->
      Mutex.lock t.mutex;
      let es = List.of_seq (Queue.to_seq q) in
      Mutex.unlock t.mutex;
      es
  | _ -> []

let json_of_attr : Attr.value -> Json.t = function
  | Attr.Int i -> Json.Int i
  | Attr.Float f -> Json.Num f
  | Attr.Bool b -> Json.Bool b
  | Attr.Str s -> Json.Str s

(* One trace line: the schema version, the event kind, its ids, then the
   fields every event shares. *)
let line ~ev ~ids ~name ~t_ns attrs =
  let attrs =
    if attrs = [] then []
    else
      [ ("attrs",
         Json.Obj (List.map (fun (k, v) -> (k, json_of_attr v)) attrs)) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Int schema_version); ("ev", Json.Str ev) ]
       @ ids
       @ [ ("name", Json.Str name); ("t_ns", Json.Int t_ns) ]
       @ attrs))

let jsonl_of_event = function
  | Span_begin { id; parent; name; t_ns; attrs } ->
      line ~ev:"span_begin"
        ~ids:
          (("id", Json.Int id)
          :: (if parent <> 0 then [ ("parent", Json.Int parent) ] else []))
        ~name ~t_ns attrs
  | Span_end { id; name; t_ns; attrs } ->
      line ~ev:"span_end" ~ids:[ ("id", Json.Int id) ] ~name ~t_ns attrs
  | Point { name; t_ns; attrs } -> line ~ev:"point" ~ids:[] ~name ~t_ns attrs

let meta_jsonl ~name ~t_ns attrs = line ~ev:"meta" ~ids:[] ~name ~t_ns attrs

let to_file path =
  let oc = open_out path in
  let t =
    { target = Channel { oc; closed = false };
      mutex = Mutex.create () }
  in
  output_string oc (meta_jsonl ~name:"twmc-trace" ~t_ns:(Clock.now_ns ()) []);
  output_char oc '\n';
  t

(* The timestamp is read inside the critical section: a stamp taken before
   the lock lets another domain write a later-stamped event first, and the
   file's timestamps then decrease. *)
let emit_stamped t make =
  match t.target with
  | Null -> ()
  | Memory q ->
      Mutex.lock t.mutex;
      Queue.add (make (Clock.now_ns ())) q;
      Mutex.unlock t.mutex
  | Channel c ->
      Mutex.lock t.mutex;
      if not c.closed then begin
        output_string c.oc (jsonl_of_event (make (Clock.now_ns ())));
        output_char c.oc '\n'
      end;
      Mutex.unlock t.mutex

let close t =
  match t.target with
  | Null | Memory _ -> ()
  | Channel c ->
      Mutex.lock t.mutex;
      if not c.closed then begin
        c.closed <- true;
        close_out c.oc
      end;
      Mutex.unlock t.mutex
