(* A process-global black box: the last [capacity] notable events, kept in
   preallocated parallel arrays so a note never grows the heap.  Unlike the
   trace ([Sink]), the recorder is always on — its call sites are
   per-temperature / per-refinement / per-pass, never per-move, so the
   per-move zero-allocation contract of the disabled trace path is
   untouched.  The ring is only rendered (to JSONL) when a flow ends badly,
   which is when its contents pay for themselves. *)

let capacity = 512

let mutex = Mutex.create ()
let sites = Array.make capacity ""
let details = Array.make capacity ""
let ivals = Array.make capacity min_int
let fvals = Array.make capacity nan
let times = Array.make capacity 0

(* Total notes ever accepted; the ring index is [total mod capacity].
   Mutated only under [mutex]. *)
let total = ref 0

let on = Atomic.make true
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Sentinels for "attribute absent": [min_int] / [nan] / [""] never occur as
   real values at any call site, and using defaults instead of options keeps
   a plain [note site] call allocation-free on the disabled branch. *)
let note ?(i = min_int) ?(f = nan) ?(detail = "") site =
  if Atomic.get on then begin
    Mutex.lock mutex;
    let idx = !total mod capacity in
    sites.(idx) <- site;
    details.(idx) <- detail;
    ivals.(idx) <- i;
    fvals.(idx) <- f;
    times.(idx) <- Clock.now_ns ();
    incr total;
    Mutex.unlock mutex
  end

let clear () =
  Mutex.lock mutex;
  total := 0;
  Array.fill sites 0 capacity "";
  Array.fill details 0 capacity "";
  Array.fill ivals 0 capacity min_int;
  Array.fill fvals 0 capacity nan;
  Array.fill times 0 capacity 0;
  Mutex.unlock mutex

type entry = {
  seq : int;
  t_ns : int;
  site : string;
  i : int option;
  f : float option;
  detail : string option;
}

let entries () =
  Mutex.lock mutex;
  let n = min !total capacity in
  let first = !total - n in
  let out =
    List.init n (fun k ->
        let abs = first + k in
        let idx = abs mod capacity in
        { seq = abs;
          t_ns = times.(idx);
          site = sites.(idx);
          i = (if ivals.(idx) = min_int then None else Some ivals.(idx));
          f = (if Float.is_nan fvals.(idx) then None else Some fvals.(idx));
          detail =
            (if details.(idx) = "" then None else Some details.(idx)) })
  in
  Mutex.unlock mutex;
  out

let recorded () =
  Mutex.lock mutex;
  let n = min !total capacity in
  Mutex.unlock mutex;
  n

let dropped () =
  Mutex.lock mutex;
  let d = max 0 (!total - capacity) in
  Mutex.unlock mutex;
  d

(* The ring as a JSONL trace: a ["twmc-flight"] meta line (carrying
   [recorded]/[dropped] attrs) followed by one point per entry with
   [seq]/[i]/[f]/[detail] attrs.  The result passes [Report.validate]. *)
let to_jsonl () =
  let es = entries () in
  (* The meta line carries the oldest entry's timestamp so the dump passes
     the monotonic-timestamp check of [Report.validate]. *)
  let t0 = match es with [] -> 0 | e :: _ -> e.t_ns in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Sink.meta_jsonl ~name:"twmc-flight" ~t_ns:t0
       [ ("recorded", Attr.Int (List.length es));
         ("dropped", Attr.Int (dropped ())) ]);
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      let attrs =
        ("seq", Attr.Int e.seq)
        :: ((match e.i with Some i -> [ ("i", Attr.Int i) ] | None -> [])
           @ (match e.f with Some f -> [ ("f", Attr.Float f) ] | None -> [])
           @
           match e.detail with
           | Some d -> [ ("detail", Attr.Str d) ]
           | None -> [])
      in
      Buffer.add_string b
        (Sink.jsonl_of_event
           (Sink.Point { name = e.site; t_ns = e.t_ns; attrs }));
      Buffer.add_char b '\n')
    es;
  Buffer.contents b

let dump path =
  (* Best-effort by design: the dump runs on the way out of a crashing or
     degraded flow, and a failing disk must not mask the original error. *)
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_jsonl ()))
  with Sys_error _ -> ()
