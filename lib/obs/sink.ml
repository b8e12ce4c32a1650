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

type mem = {
  q : event Queue.t;
  cap : int;  (* [max_int] = unbounded (the default). *)
  mutable dropped : int;
}

type target =
  | Null
  | Memory of mem
  | Channel of chan

type t = { target : target; mutex : Mutex.t }

let null = { target = Null; mutex = Mutex.create () }
let enabled t = t.target <> Null

let memory ?(capacity = max_int) () =
  if capacity < 1 then invalid_arg "Sink.memory: capacity < 1";
  { target = Memory { q = Queue.create (); cap = capacity; dropped = 0 };
    mutex = Mutex.create () }

let memory_events t =
  match t.target with
  | Memory m ->
      Mutex.lock t.mutex;
      let es = List.of_seq (Queue.to_seq m.q) in
      Mutex.unlock t.mutex;
      es
  | _ -> []

let dropped t =
  match t.target with
  | Memory m ->
      Mutex.lock t.mutex;
      let d = m.dropped in
      Mutex.unlock t.mutex;
      d
  | _ -> 0

let jsonl_of_event ev =
  let b = Buffer.create 128 in
  let common name t_ns attrs =
    Buffer.add_string b (Printf.sprintf ",\"name\":\"%s\",\"t_ns\":%d"
                           (Attr.json_escape name) t_ns);
    if attrs <> [] then begin
      Buffer.add_string b ",\"attrs\":";
      Buffer.add_string b (Attr.json_of attrs)
    end
  in
  Buffer.add_string b (Printf.sprintf "{\"v\":%d," schema_version);
  (match ev with
  | Span_begin { id; parent; name; t_ns; attrs } ->
      Buffer.add_string b (Printf.sprintf "\"ev\":\"span_begin\",\"id\":%d" id);
      if parent <> 0 then Buffer.add_string b (Printf.sprintf ",\"parent\":%d" parent);
      common name t_ns attrs
  | Span_end { id; name; t_ns; attrs } ->
      Buffer.add_string b (Printf.sprintf "\"ev\":\"span_end\",\"id\":%d" id);
      common name t_ns attrs
  | Point { name; t_ns; attrs } ->
      Buffer.add_string b "\"ev\":\"point\"";
      common name t_ns attrs);
  Buffer.add_char b '}';
  Buffer.contents b

let meta_line () =
  Printf.sprintf
    "{\"v\":%d,\"ev\":\"meta\",\"name\":\"twmc-trace\",\"t_ns\":%d}"
    schema_version (Clock.now_ns ())

let to_file path =
  let oc = open_out path in
  let t =
    { target = Channel { oc; closed = false };
      mutex = Mutex.create () }
  in
  output_string oc (meta_line ());
  output_char oc '\n';
  t

(* The timestamp is read inside the critical section: a stamp taken before
   the lock lets another domain write a later-stamped event first, and the
   file's timestamps then decrease. *)
let emit_stamped t make =
  match t.target with
  | Null -> ()
  | Memory m ->
      Mutex.lock t.mutex;
      if Queue.length m.q >= m.cap then begin
        ignore (Queue.pop m.q);
        m.dropped <- m.dropped + 1
      end;
      Queue.add (make (Clock.now_ns ())) m.q;
      Mutex.unlock t.mutex
  | Channel c ->
      Mutex.lock t.mutex;
      if not c.closed then begin
        output_string c.oc (jsonl_of_event (make (Clock.now_ns ())));
        output_char c.oc '\n'
      end;
      Mutex.unlock t.mutex

let emit t ev = emit_stamped t (fun _ -> ev)

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
