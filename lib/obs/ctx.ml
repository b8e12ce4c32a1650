type t = Sink.t

let disabled = Sink.null
let create sink = sink
let tracing = Sink.enabled

(* Process-unique span ids; 0 is reserved for "no parent". *)
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* Per-domain stack of open span ids: spans started on a worker domain
   nest under each other, never under an unrelated span of the caller. *)
let stack_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let point t ~name ?(attrs = []) () =
  if Sink.enabled t then
    Sink.emit_stamped t (fun t_ns -> Sink.Point { name; t_ns; attrs })

let span t ~name ?(attrs = []) f =
  if not (Sink.enabled t) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> 0 | p :: _ -> p in
    let id = fresh_id () in
    Sink.emit_stamped t (fun t_ns ->
        Sink.Span_begin { id; parent; name; t_ns; attrs });
    stack := id :: !stack;
    let finish attrs =
      (match !stack with s :: rest when s = id -> stack := rest | _ -> ());
      Sink.emit_stamped t (fun t_ns -> Sink.Span_end { id; name; t_ns; attrs })
    in
    match f () with
    | v ->
        finish [];
        v
    | exception e ->
        finish [ ("error", Attr.Bool true) ];
        raise e
  end
