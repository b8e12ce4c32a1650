type counter = { c_on : bool; v : int Atomic.t }

type gauge = { g_on : bool; mutable g : float; g_mutex : Mutex.t }

type histogram = {
  h_on : bool;
  bounds : float array;
  counts : int array;  (** [counts.(i)]: samples <= bounds.(i); last slot is overflow. *)
  mutable h_sum : float;
  mutable h_count : int;
  h_mutex : Mutex.t;
}

type series = {
  s_on : bool;
  mutable samples : float list;  (** Newest first. *)
  s_mutex : Mutex.t;
}

type t = {
  on : bool;
  mutex : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  series_tbl : (string, series) Hashtbl.t;
}

let create () =
  { on = true;
    mutex = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    series_tbl = Hashtbl.create 16 }

let null =
  { on = false;
    mutex = Mutex.create ();
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
    histograms = Hashtbl.create 1;
    series_tbl = Hashtbl.create 1 }

let enabled t = t.on

let get_or_create t tbl name make =
  Mutex.lock t.mutex;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.replace tbl name v;
        v
  in
  Mutex.unlock t.mutex;
  v

(* ------------------------------------------------------------ counters *)

let null_counter = { c_on = false; v = Atomic.make 0 }

let counter t name =
  if not t.on then null_counter
  else
    get_or_create t t.counters name (fun () ->
        { c_on = true; v = Atomic.make 0 })

let add c n = if c.c_on then ignore (Atomic.fetch_and_add c.v n)
let incr c = add c 1
let counter_value c = Atomic.get c.v

(* -------------------------------------------------------------- gauges *)

let null_gauge = { g_on = false; g = 0.0; g_mutex = Mutex.create () }

let gauge t name =
  if not t.on then null_gauge
  else
    get_or_create t t.gauges name (fun () ->
        { g_on = true; g = 0.0; g_mutex = Mutex.create () })

let set g x =
  if g.g_on then begin
    Mutex.lock g.g_mutex;
    g.g <- x;
    Mutex.unlock g.g_mutex
  end

let gauge_value g = g.g

(* ---------------------------------------------------------- histograms *)

let default_bounds =
  (* 3 per decade, 1e-9 .. 1e4: covers span durations in seconds and small
     counts alike. *)
  Array.init 40 (fun i -> 10.0 ** ((float_of_int i /. 3.0) -. 9.0))

let null_histogram =
  { h_on = false;
    bounds = [||];
    counts = [||];
    h_sum = 0.0;
    h_count = 0;
    h_mutex = Mutex.create () }

let histogram ?(bounds = default_bounds) t name =
  if not t.on then null_histogram
  else begin
    let ok = ref (Array.length bounds > 0) in
    for i = 1 to Array.length bounds - 1 do
      if bounds.(i) <= bounds.(i - 1) then ok := false
    done;
    if not !ok then invalid_arg "Metrics.histogram: bounds";
    get_or_create t t.histograms name (fun () ->
        { h_on = true;
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          h_sum = 0.0;
          h_count = 0;
          h_mutex = Mutex.create () })
  end

let bucket_index h x =
  let n = Array.length h.bounds in
  let rec find lo hi =
    (* First bound >= x, by bisection; [n] is the overflow bucket. *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if h.bounds.(mid) >= x then find lo mid else find (mid + 1) hi
  in
  find 0 n

let observe h x =
  if h.h_on then begin
    Mutex.lock h.h_mutex;
    h.counts.(bucket_index h x) <- h.counts.(bucket_index h x) + 1;
    h.h_sum <- h.h_sum +. x;
    h.h_count <- h.h_count + 1;
    Mutex.unlock h.h_mutex
  end

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

(* -------------------------------------------------------------- series *)

let null_series = { s_on = false; samples = []; s_mutex = Mutex.create () }

let series t name =
  if not t.on then null_series
  else
    get_or_create t t.series_tbl name (fun () ->
        { s_on = true; samples = []; s_mutex = Mutex.create () })

let sample s x =
  if s.s_on then begin
    Mutex.lock s.s_mutex;
    s.samples <- x :: s.samples;
    Mutex.unlock s.s_mutex
  end

let series_values s = List.rev s.samples

(* -------------------------------------------------------------- timers *)

let time t name f =
  if not t.on then f ()
  else begin
    let h = histogram t name in
    let calls = counter t (name ^ ".calls") in
    let t0 = Clock.now_ns () in
    let finish () =
      observe h (Clock.s_of_ns (Clock.now_ns () - t0));
      incr calls
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* -------------------------------------------------------------- export *)

let sorted_names tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let to_json t =
  let section tbl value =
    Json.Obj
      (List.map (fun k -> (k, value (Hashtbl.find tbl k))) (sorted_names tbl))
  in
  let histogram h =
    let buckets =
      List.filter_map
        (fun i ->
          let n = h.counts.(i) in
          if n = 0 then None
          else
            Some
              (Json.Obj
                 [ ("le",
                    if i < Array.length h.bounds then Json.Num h.bounds.(i)
                    else Json.Str "inf");
                   ("n", Json.Int n) ]))
        (List.init (Array.length h.counts) Fun.id)
    in
    Json.Obj
      [ ("count", Json.Int h.h_count); ("sum", Json.Num h.h_sum);
        ("buckets", Json.List buckets) ]
  in
  Json.to_string
    (Json.Obj
       [ ("counters", section t.counters (fun c -> Json.Int (counter_value c)));
         ("gauges", section t.gauges (fun g -> Json.Num (gauge_value g)));
         ("histograms", section t.histograms histogram);
         ("series",
          section t.series_tbl (fun s ->
              Json.List (List.map (fun x -> Json.Num x) (series_values s)))) ])
  ^ "\n"
