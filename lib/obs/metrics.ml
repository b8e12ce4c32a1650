module R = Report

(* 3 per decade, 1e-9 .. 1e4, plus an overflow bucket. *)
let bounds = Array.init 40 (fun i -> 10.0 ** ((float_of_int i /. 3.0) -. 9.0))

type histogram = {
  counts : int array;
      (* [counts.(i)]: samples <= bounds.(i); the last slot is overflow. *)
  mutable sum : float;
  mutable count : int;
}

type acc = {
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  series : (string, float list) Hashtbl.t;  (* Newest first. *)
  mutable attempt : R.event list;
      (* The running stage-1 attempt's temperature and winner points,
         newest first. *)
  mutable refinement : float list;
      (* Stage-2 acceptances of the running refinement, newest first. *)
  mutable kept : float list;
      (* Stage-2 acceptances of the refinements kept so far, newest first. *)
}

let add a k n =
  Hashtbl.replace a.counters k
    (n + Option.value ~default:0 (Hashtbl.find_opt a.counters k))

let set a k x = Hashtbl.replace a.gauges k x

let declare a k =
  if not (Hashtbl.mem a.series k) then Hashtbl.replace a.series k []

let sample a k x =
  Hashtbl.replace a.series k
    (x :: Option.value ~default:[] (Hashtbl.find_opt a.series k))

let histogram a k =
  match Hashtbl.find_opt a.histograms k with
  | Some h -> h
  | None ->
      let h =
        { counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; count = 0 }
      in
      Hashtbl.replace a.histograms k h;
      h

let observe h x =
  (* First bound >= x, by bisection; [Array.length bounds] is the overflow
     bucket. *)
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if bounds.(mid) >= x then find lo mid else find (mid + 1) hi
  in
  let i = find 0 (Array.length bounds) in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. x;
  h.count <- h.count + 1

(* The series a finished flow samples from its winning stage-1 replica,
   with the [stage1.temp] attribute each one reads. *)
let stage1_series =
  [ ("stage1.temperature", "t"); ("stage1.acceptance", "acceptance");
    ("stage1.cost", "cost"); ("stage1.c1", "c1"); ("stage1.c2", "c2");
    ("stage1.c3", "c3") ]

let step a (e : R.event) =
  let f = R.attr_f e in
  let n k =
    let x = f k in
    if Float.is_nan x then 0 else int_of_float x
  in
  (* "stage1" or "stage2", for the points both stages emit. *)
  let stage () = String.sub e.R.name 0 6 in
  match (e.R.ev, e.R.name) with
  | "span_begin", "stage1" -> a.attempt <- []
  | "point", ("stage1.temp" | "stage1.winner") -> a.attempt <- e :: a.attempt
  | "point", "stage1.replica" -> sample a "stage1.replica_cost" (f "cost")
  | "point", ("stage1.moves" | "stage2.moves") ->
      List.iter
        (fun (k, _) ->
          if k <> "replica" && k <> "iteration" then
            add a (stage () ^ ".moves." ^ k) (n k))
        e.R.attrs
  | "point", ("stage1.classes" | "stage2.classes") ->
      let cls = Printf.sprintf "%s.class.%s." (stage ()) (R.attr_s e "cls") in
      add a (cls ^ "attempts") (n "attempts");
      add a (cls ^ "accepts") (n "accepts")
  | "point", "stage2.temp" -> a.refinement <- f "acceptance" :: a.refinement
  | "point", "stage2.rollback" ->
      add a "stage2.rollbacks" 1;
      a.refinement <- []
  | "point", "route.iteration" ->
      add a "stage2.refinements" 1;
      sample a "route.overflow" (f "overflow");
      sample a "stage2.teil" (f "teil");
      a.kept <- a.refinement @ a.kept;
      a.refinement <- []
  | "point", "route.net" ->
      observe (histogram a "route.alternatives_per_net") (f "alternatives");
      add a "route.routes_enumerated" (n "alternatives")
  | "point", "route.assign" ->
      (* A pass over no nets still opens the enumeration instruments. *)
      ignore (histogram a "route.alternatives_per_net");
      add a "route.routes_enumerated" 0;
      add a "route.passes" 1;
      add a "route.nets_routed" (n "nets");
      add a "route.nets_unroutable" (n "unroutable");
      add a "route.assign_attempts" (n "attempts")
  | "point", "flow.status" ->
      add a "flow.retries" (n "retries");
      set a "flow.diagnostics" (f "diagnostics")
  | "point", "flow.result" ->
      let attempt = List.rev a.attempt in
      let temps =
        R.replica_points "stage1.temp" ~winner:(R.winner attempt) attempt
      in
      List.iter
        (fun (k, attr) ->
          declare a k;
          List.iter (fun t -> sample a k (R.attr_f t attr)) temps)
        stage1_series;
      declare a "stage2.acceptance";
      List.iter (sample a "stage2.acceptance") (List.rev a.kept);
      a.kept <- [];
      declare a "pool.utilization";
      declare a "route.overflow";
      set a "flow.teil_final" (f "teil");
      set a "flow.area_final" (f "area");
      set a "flow.elapsed_s" (f "elapsed_s");
      List.iter
        (fun (k, _) ->
          if k = "c4" then set a "cons.c4" (f k)
          else if String.starts_with ~prefix:"penalty." k then
            set a
              (Printf.sprintf "cons.%s.penalty"
                 (String.sub k 8 (String.length k - 8)))
              (f k))
        e.R.attrs
  | "point", "pool.domain" ->
      sample a "pool.busy_s" (f "busy_s");
      sample a "pool.utilization" (f "utilization")
  | "point", "pool.shutdown" ->
      add a "pool.tasks" (n "tasks");
      add a "pool.batches" (n "batches");
      set a "pool.imbalance" (f "imbalance")
  | _ -> ()

let to_json a =
  let section tbl value =
    Json.Obj
      (Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
      |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2))
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
                    if i < Array.length bounds then Json.Num bounds.(i)
                    else Json.Str "inf");
                   ("n", Json.Int n) ]))
        (List.init (Array.length h.counts) Fun.id)
    in
    Json.Obj
      [ ("count", Json.Int h.count); ("sum", Json.Num h.sum);
        ("buckets", Json.List buckets) ]
  in
  Json.Obj
    [ ("counters", section a.counters (fun c -> Json.Int c));
      ("gauges", section a.gauges (fun g -> Json.Num g));
      ("histograms", section a.histograms histogram);
      ("series",
       section a.series (fun s ->
           Json.List (List.rev_map (fun x -> Json.Num x) s))) ]

let of_events events =
  let a =
    { counters = Hashtbl.create 64;
      gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 1;
      series = Hashtbl.create 16;
      attempt = [];
      refinement = [];
      kept = [] }
  in
  List.iter (step a) events;
  to_json a
