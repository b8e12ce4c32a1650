open Twmc_geometry
open Twmc_netlist
module Schedule = Twmc_sa.Schedule
module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr

type temp_record = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;
  window : float * float;
}

type tag = Stage1 of int option | Stage2 of int option
type stop = Min_window | Frozen of int

type result = {
  trace : temp_record list;
  temperatures : int;
  interrupted : bool;
}

let avg_cell_area p =
  float_of_int (Placement.expanded_area p)
  /. float_of_int (max 1 (Netlist.n_cells (Placement.netlist p)))

(* The quench tail: the temperature falls by [quench_cooling] per loop, and
   the tail ends after [quench_max_loops] loops or [quench_patience] loops
   without a new overlap minimum.  After [escape_after] loops, odd-numbered
   loops use a constant window of [escape_fraction] of the core spans. *)
let quench_cooling = 0.6
let quench_max_loops = 150
let quench_patience = 20
let escape_after = 12
let escape_fraction = 0.20

let stage_name = function Stage1 _ -> "stage1" | Stage2 _ -> "stage2"

let index_attr = function
  | Stage1 (Some r) -> [ ("replica", Attr.Int r) ]
  | Stage2 (Some i) -> [ ("iteration", Attr.Int i) ]
  | Stage1 None | Stage2 None -> []

(* The acceptance numerator: accepted top-level outcomes that move or
   reshape a cell (pin and variant moves are not counted). *)
let accepted (s : Moves.stats) =
  s.Moves.displacements + s.Moves.interchanges + s.Moves.orient_changes
  + s.Moves.aspect_rescues

(* Per finished anneal: one point with the move counters, then one
   per-class efficacy point (attempts, accepts and summed Δcost) for every
   move class of the trial ladder — the trace-side source for [Health]'s
   move-class tables and the metrics fold's stage counters. *)
let record_stats obs tag (s : Moves.stats) =
  if Obs.tracing obs then begin
    let count name v = (name, Attr.Int v) in
    Obs.point obs
      ~name:(stage_name tag ^ ".moves")
      ~attrs:
        (index_attr tag
        @ [ count "attempts" s.Moves.attempts;
            count "displacements" s.Moves.displacements ]
        @
        match tag with
        | Stage1 _ ->
            [ count "aspect_rescues" s.Moves.aspect_rescues;
              count "orient_changes" s.Moves.orient_changes;
              count "interchanges" s.Moves.interchanges;
              count "interchange_rescues" s.Moves.interchange_rescues;
              count "pin_moves" s.Moves.pin_moves;
              count "variant_changes" s.Moves.variant_changes ]
        | Stage2 _ ->
            (* Stage 2's move set never reorients, interchanges or
               reshapes. *)
            [ count "pin_moves" s.Moves.pin_moves ])
      ();
    for c = 0 to Moves.n_classes - 1 do
      Obs.point obs
        ~name:(stage_name tag ^ ".classes")
        ~attrs:
          (index_attr tag
          @ [ ("cls", Attr.Str (Moves.class_name c));
              ("attempts", Attr.Int s.Moves.class_attempts.(c));
              ("accepts", Attr.Int s.Moves.class_accepts.(c));
              ("dcost", Attr.Float s.Moves.class_dcost.(c)) ])
        ()
    done
  end

let run tag ?should_stop ?(obs = Obs.disabled) ~rng ~schedule ~t_start
    ~t_floor ~stop moves =
  let p = Moves.placement moves in
  let limiter = Moves.limiter moves in
  let stats = Moves.stats moves in
  let n_cells = Netlist.n_cells (Placement.netlist p) in
  let a = (Placement.params p).Params.a_c * n_cells in
  let temp_event = stage_name tag ^ ".temp" in
  let index = match tag with Stage1 i | Stage2 i -> i in
  let poll = match should_stop with None -> fun () -> false | Some f -> f in
  let stopped = ref false in
  let temperatures = ref 0 in
  let trace = ref [] in
  let frozen = ref 0 and last_cost = ref nan in
  (* One inner loop.  Cooperative timeout: poll the guard every 128 moves so
     a wall-clock budget cuts the anneal off mid-inner-loop, not at the next
     temperature. *)
  let inner moves temp =
    incr temperatures;
    let i = ref 0 in
    while !i < a && not !stopped do
      Moves.generate moves rng ~temp;
      incr i;
      if !i land 127 = 0 && poll () then stopped := true
    done;
    (* Correct any float drift in the incremental accumulators.  Only C1
       can drift: C2, C3, C4 and TEIL are sums of integer-valued floats
       well under 2^53, exact along any chain, and each net's cached C1 is
       that of its committed pins.  So re-summing C1 from the nets in net
       order leaves every total bit for bit what [recompute_all] would,
       without rebuilding every cell, the overlap and the penalties. *)
    Placement.resum p
  in
  let rec anneal temp =
    let accepted_before = accepted stats in
    inner moves temp;
    let r =
      { temperature = temp;
        cost = Placement.total_cost p;
        c1 = Placement.c1 p;
        c2_raw = Placement.c2_raw p;
        c3 = Placement.c3 p;
        acceptance =
          float_of_int (accepted stats - accepted_before) /. float_of_int a;
        window = Range_limiter.window limiter ~temp }
    in
    trace := r :: !trace;
    Twmc_obs.Flight_recorder.note ?i:index ~f:temp temp_event;
    if Obs.tracing obs then
      Obs.point obs ~name:temp_event
        ~attrs:
          (index_attr tag
          @ [ ("t", Attr.Float temp); ("cost", Attr.Float r.cost);
              ("c1", Attr.Float r.c1); ("c2", Attr.Float r.c2_raw);
              ("c3", Attr.Float r.c3); ("acceptance", Attr.Float r.acceptance) ]
          @
          match tag with
          | Stage1 _ ->
              let wx, wy = r.window in
              [ ("wx", Attr.Float wx); ("wy", Attr.Float wy);
                (* The schedule's Eqn 19-21 driver, sampled per temperature
                   so [Health] can watch the estimator converge. *)
                ("est", Attr.Float (avg_cell_area p)) ]
          | Stage2 _ -> [])
        ();
    if r.cost = !last_cost then incr frozen else frozen := 0;
    last_cost := r.cost;
    let stop_now =
      match stop with
      | Min_window -> Range_limiter.at_min_span limiter ~temp
      | Frozen k -> !frozen >= k
    in
    if !stopped then ()
    else if stop_now then quench temp
    else
      let temp' = Schedule.next schedule temp in
      if temp' < t_floor then quench temp' else anneal temp'
  (* Cool with minimum-window moves first; once essentially frozen, start
     interleaving the constant-window escape loops — at near-zero T they
     only ever accept improving hops, so they can unjam without churning. *)
  and quench temp =
    let core = Placement.core p in
    (* rho = 1 makes the window temperature-independent. *)
    let escape =
      Moves.with_limiter moves
        (Range_limiter.create ~rho:1.0 ~t_inf:10.0
           ~wx_inf:(escape_fraction *. float_of_int (Rect.width core))
           ~wy_inf:(escape_fraction *. float_of_int (Rect.height core))
           ~min_window:(Placement.params p).Params.min_window)
    in
    let best = ref infinity and since_improved = ref 0 in
    let loops = ref 0 and temp = ref temp in
    while
      !loops < quench_max_loops
      && Placement.c2_raw p > 0.0
      && !since_improved < quench_patience
      && not !stopped
    do
      inner
        (if !loops >= escape_after && !loops mod 2 = 1 then escape else moves)
        !temp;
      let c2 = Placement.c2_raw p in
      if c2 < !best then begin
        best := c2;
        since_improved := 0
      end
      else incr since_improved;
      temp := quench_cooling *. !temp;
      incr loops
    done
  in
  Obs.span obs
    ~name:
      (match tag with
      | Stage1 _ -> "stage1.anneal"
      | Stage2 _ -> "stage2.anneal")
    ~attrs:
      (if Obs.tracing obs then
         index_attr tag
         @ [ ("cells", Attr.Int n_cells); ("t_inf", Attr.Float t_start) ]
       else [])
    (fun () -> anneal t_start);
  record_stats obs tag stats;
  { trace = List.rev !trace;
    temperatures = !temperatures;
    interrupted = !stopped || poll () }
