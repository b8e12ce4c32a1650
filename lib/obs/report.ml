type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* ------------------------------------------------- minimal JSON parser *)

exception Bad of int * string

let parse_json_at s pos0 =
  let n = String.length s in
  let pos = ref pos0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'u' ->
                 if !pos + 4 >= n then fail "bad \\u escape";
                 let hex = String.sub s (!pos + 1) 4 in
                 let code =
                   try int_of_string ("0x" ^ hex)
                   with _ -> fail "bad \\u escape"
                 in
                 (* Trace attrs are ASCII; map BMP escapes below 0x80
                    directly and larger ones to '?'. *)
                 Buffer.add_char b
                   (if code < 0x80 then Char.chr code else '?');
                 pos := !pos + 5
             | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while
      match peek () with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ()
            | '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements ()
            | ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  (v, !pos)

let parse_json s =
  match parse_json_at s 0 with
  | v, stop ->
      if stop <> String.length s then
        failwith
          (Printf.sprintf "at offset %d: trailing characters after JSON value"
             stop);
      v
  | exception Bad (pos, msg) ->
      failwith (Printf.sprintf "at offset %d: %s" pos msg)

(* --------------------------------------------------------------- events *)

type event = {
  v : int;
  ev : string;
  id : int;
  parent : int;
  name : string;
  t_ns : int;
  attrs : (string * json) list;
  line : int;  (* 1-based source line in the loaded file; 0 if synthetic. *)
}

let field obj k = match obj with Obj fs -> List.assoc_opt k fs | _ -> None

let int_field obj k =
  match field obj k with Some (Num f) -> int_of_float f | _ -> 0

let str_field obj k = match field obj k with Some (Str s) -> s | _ -> ""

let event_of_json ?(line = 0) j =
  { v = int_field j "v";
    ev = str_field j "ev";
    id = int_field j "id";
    parent = int_field j "parent";
    name = str_field j "name";
    t_ns = int_field j "t_ns";
    attrs = (match field j "attrs" with Some (Obj fs) -> fs | _ -> []);
    line }

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           Stdlib.incr lineno;
           let line = String.trim line in
           if line <> "" then
             match parse_json line with
             | Obj _ as j ->
                 events := event_of_json ~line:!lineno j :: !events
             | _ ->
                 failwith
                   (Printf.sprintf "%s:%d: line is not a JSON object" path
                      !lineno)
             | exception Failure m ->
                 failwith (Printf.sprintf "%s:%d: %s" path !lineno m)
         done
       with End_of_file -> ());
      List.rev !events)

(* Through the printer and back, so an in-memory event reads exactly as the
   same event loaded from a trace file. *)
let of_sink_event e = event_of_json (parse_json (Sink.jsonl_of_event e))

(* ------------------------------------------------------- reading events *)

let attr_f e k =
  match List.assoc_opt k e.attrs with Some (Num f) -> f | _ -> nan

let whole_or_unknown f = if Float.is_nan f then "?" else Printf.sprintf "%.0f" f

let attr_s e k =
  match List.assoc_opt k e.attrs with Some (Str s) -> s | _ -> ""

let points name events =
  List.filter (fun e -> e.ev = "point" && e.name = name) events

let winner events =
  match List.rev (points "stage1.winner" events) with
  | e :: _ ->
      let w = attr_f e "index" in
      if Float.is_nan w then None else Some (int_of_float w)
  | [] -> None

let replica_points name ~winner events =
  let of_winner e =
    match winner with
    | None -> true
    | Some w ->
        let r = attr_f e "replica" in
        (not (Float.is_nan r)) && int_of_float r = w
  in
  List.filter of_winner (points name events)

type route_pass = {
  pass : int;
  before : float;
  after : float;
  length : float;
  nets : float;
}

let route_passes events =
  List.mapi
    (fun i e ->
      { pass = i + 1;
        before = attr_f e "overflow_before";
        after = attr_f e "overflow_after";
        length = attr_f e "length";
        nets = attr_f e "nets" })
    (points "route.assign" events)

(* ----------------------------------------------------------- validation *)

let validate events =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* Point at the source line when the event was loaded from a file, at the
     event index otherwise (synthetic event lists have no lines). *)
  let where i e =
    if e.line > 0 then Printf.sprintf "line %d" e.line
    else Printf.sprintf "event %d" i
  in
  (match events with
  | { ev = "meta"; v; _ } :: _ ->
      if v > Sink.schema_version then
        problem "trace schema version %d is newer than supported (%d)" v
          Sink.schema_version
  | _ -> problem "first event is not a meta line");
  let last_t = ref min_int in
  let open_spans = Hashtbl.create 64 in
  List.iteri
    (fun i e ->
      if e.t_ns < !last_t then
        problem "%s (%s %s): timestamp %d decreases (prev %d)" (where i e)
          e.ev e.name e.t_ns !last_t;
      last_t := max !last_t e.t_ns;
      match e.ev with
      | "span_begin" ->
          if e.id <= 0 then problem "%s: span_begin without id" (where i e);
          if Hashtbl.mem open_spans e.id then
            problem "%s: duplicate span id %d" (where i e) e.id;
          if e.parent <> 0 && not (Hashtbl.mem open_spans e.parent) then
            problem "%s (%s): parent %d is not an open span" (where i e)
              e.name e.parent;
          Hashtbl.replace open_spans e.id e.name
      | "span_end" -> (
          match Hashtbl.find_opt open_spans e.id with
          | Some name ->
              if name <> e.name then
                problem "%s: span %d ends as %S but began as %S" (where i e)
                  e.id e.name name;
              Hashtbl.remove open_spans e.id
          | None -> problem "%s: span_end %d without a begin" (where i e) e.id)
      | "point" | "meta" -> ()
      | other -> problem "%s: unknown event kind %S" (where i e) other)
    events;
  Hashtbl.iter
    (fun id name -> problem "span %d (%s) never ends" id name)
    open_spans;
  List.rev !problems

(* ----------------------------------------------------- bench comparison *)

(* The bench harness writes {"kernels": [{"name": ..., "ns_per_op": ...}]}
   (see bench/main.ml).  [compare_benches] intersects two such files by
   kernel name; kernels present on only one side are reported but never
   gate — machines differ in which wall-clock kernels they run. *)

let load_bench path =
  let text =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let j =
    match parse_json text with
    | j -> j
    | exception Failure m -> failwith (Printf.sprintf "%s: %s" path m)
  in
  match field j "kernels" with
  | Some (List ks) ->
      List.map
        (fun k ->
          match (field k "name", field k "ns_per_op") with
          | Some (Str name), Some (Num ns) -> (name, ns)
          | _ ->
              failwith
                (Printf.sprintf
                   "%s: kernel entry without name/ns_per_op fields" path))
        ks
  | _ -> failwith (Printf.sprintf "%s: no \"kernels\" array" path)

let bench_to_string kernels =
  let kernel (name, ns) = Obj [ ("name", Str name); ("ns_per_op", Num ns) ] in
  Json.to_string (Obj [ ("kernels", List (List.map kernel kernels)) ]) ^ "\n"

type bench_row = {
  kernel : string;
  old_ns : float;
  new_ns : float;
  delta_pct : float;
}

type bench_comparison = {
  rows : bench_row list;  (* Kernels present on both sides, in old order. *)
  regressions : bench_row list;  (* Rows slower by more than the budget. *)
  only_old : string list;
  only_new : string list;
}

let compare_benches ~max_regress_pct old_b new_b =
  let rows =
    List.filter_map
      (fun (kernel, old_ns) ->
        match List.assoc_opt kernel new_b with
        | Some new_ns when old_ns > 0.0 ->
            Some
              { kernel;
                old_ns;
                new_ns;
                delta_pct = 100.0 *. (new_ns -. old_ns) /. old_ns }
        | _ -> None)
      old_b
  in
  { rows;
    regressions = List.filter (fun r -> r.delta_pct > max_regress_pct) rows;
    only_old =
      List.filter_map
        (fun (k, _) ->
          if List.mem_assoc k new_b then None else Some k)
        old_b;
    only_new =
      List.filter_map
        (fun (k, _) ->
          if List.mem_assoc k old_b then None else Some k)
        new_b }

let pp_bench_comparison ppf c =
  Format.fprintf ppf "@[<v>%-52s %12s %12s %9s@," "kernel" "old ns/op"
    "new ns/op" "delta";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-52s %12.1f %12.1f %+8.1f%%%s@," r.kernel r.old_ns
        r.new_ns r.delta_pct
        (if List.memq r c.regressions then "  REGRESSION" else ""))
    c.rows;
  List.iter
    (fun k -> Format.fprintf ppf "%-52s (only in old file)@," k)
    c.only_old;
  List.iter
    (fun k -> Format.fprintf ppf "%-52s (only in new file)@," k)
    c.only_new;
  (match c.regressions with
  | [] -> Format.fprintf ppf "no regressions over budget@,"
  | rs -> Format.fprintf ppf "%d kernel(s) over the regression budget@,"
            (List.length rs));
  Format.fprintf ppf "@]"

(* -------------------------------------------------------------- summary *)

let pp_duration ppf ns =
  let s = float_of_int ns *. 1e-9 in
  if s >= 1.0 then Format.fprintf ppf "%.2fs" s
  else if s >= 1e-3 then Format.fprintf ppf "%.1fms" (s *. 1e3)
  else Format.fprintf ppf "%.0fus" (s *. 1e6)

type span = { s_name : string; s_parent : int; t0 : int; dur : int }

let spans_of events =
  let begins = Hashtbl.create 64 in
  let spans = ref [] in
  List.iter
    (fun e ->
      match e.ev with
      | "span_begin" -> Hashtbl.replace begins e.id e
      | "span_end" -> (
          match Hashtbl.find_opt begins e.id with
          | Some b ->
              spans :=
                { s_name = b.name;
                  s_parent = b.parent;
                  t0 = b.t_ns;
                  dur = e.t_ns - b.t_ns }
                :: !spans;
              Hashtbl.remove begins e.id
          | None -> ())
      | _ -> ())
    events;
  List.rev !spans

let pp_summary ppf events =
  let spans = spans_of events in
  let t_lo =
    List.fold_left (fun acc e -> if e.t_ns > 0 then min acc e.t_ns else acc)
      max_int events
  and t_hi = List.fold_left (fun acc e -> max acc e.t_ns) 0 events in
  Format.fprintf ppf "@[<v>trace: %d events, %d spans, wall %a@,"
    (List.length events) (List.length spans)
    pp_duration (if t_lo = max_int then 0 else t_hi - t_lo);
  (* Per-stage wall time: aggregate top-level spans by name. *)
  let stages = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.s_parent = 0 then
        let d, c =
          Option.value ~default:(0, 0) (Hashtbl.find_opt stages s.s_name)
        in
        Hashtbl.replace stages s.s_name (d + s.dur, c + 1))
    spans;
  let stage_rows =
    Hashtbl.fold (fun k (d, c) acc -> (k, d, c) :: acc) stages []
    |> List.sort (fun (_, d1, _) (_, d2, _) -> compare d2 d1)
  in
  if stage_rows <> [] then begin
    Format.fprintf ppf "@,per-stage wall time (top-level spans):@,";
    List.iter
      (fun (name, d, c) ->
        Format.fprintf ppf "  %-24s %a%s@," name pp_duration d
          (if c > 1 then Printf.sprintf "  (%d spans)" c else ""))
      stage_rows
  end;
  (* Top-5 slowest spans. *)
  let slowest =
    List.sort (fun a b -> compare b.dur a.dur) spans |> fun l ->
    List.filteri (fun i _ -> i < 5) l
  in
  if slowest <> [] then begin
    Format.fprintf ppf "@,top-5 slowest spans:@,";
    List.iter
      (fun s -> Format.fprintf ppf "  %-24s %a@," s.s_name pp_duration s.dur)
      slowest
  end;
  (* Stage-1 acceptance curve, winning replica when identifiable. *)
  let winner = winner events in
  let temp_points = replica_points "stage1.temp" ~winner events in
  if temp_points <> [] then begin
    let n = List.length temp_points in
    Format.fprintf ppf "@,stage-1 acceptance curve (%d temperatures%s):@," n
      (match winner with
      | Some w -> Printf.sprintf ", replica %d" w
      | None -> "");
    (* At most 12 evenly spaced rows. *)
    let step = max 1 (n / 12) in
    List.iteri
      (fun i e ->
        let t = attr_f e "t" and a = attr_f e "acceptance" in
        if
          (i mod step = 0 || i = n - 1)
          && not (Float.is_nan t || Float.is_nan a)
        then
          Format.fprintf ppf "  T=%-12.4g accept=%5.1f%%  cost=%s@," t
            (100.0 *. a)
            (whole_or_unknown (attr_f e "cost")))
      temp_points
  end;
  (* Router overflow trend. *)
  let passes = route_passes events in
  if passes <> [] then begin
    Format.fprintf ppf "@,router overflow (per routing pass):@,";
    List.iter
      (fun p ->
        if not (Float.is_nan p.before || Float.is_nan p.after) then
          Format.fprintf ppf "  pass %-2d X %.0f -> %.0f  (L=%s, %s nets)@,"
            p.pass p.before p.after (whole_or_unknown p.length)
            (whole_or_unknown p.nets))
      passes
  end;
  Format.fprintf ppf "@]"
