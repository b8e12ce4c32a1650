(* Flow benchmark: the complete TimberWolfMC flow — parse, lint, stage-1
   placement, stage-2 refinement (channel definition, global routing,
   low-temperature anneal, iterated) and the final routing pass — on
   circuits generated from a seed.

     python3 flowbench/run.py --workload anneal --seed 1 --seconds 10 --trace 0

   With --trace 0 it times whole flows and prints the end-to-end metrics.
   With --trace 1 it runs the same flow composed from its layer entry points,
   records a span around each layer call from here (outside the program), and
   prints per-layer metrics instead.  Either way every output is checked
   (oracle pack, determinism across repeats), every time is scaled to a
   reference host speed (see "Host speed" below), and the last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics. *)

module Netlist = Twmc.Netlist.Netlist
module Parser = Twmc.Netlist.Parser
module Writer = Twmc.Netlist.Writer
module Params = Twmc.Place.Params
module Placement = Twmc.Place.Placement
module Moves = Twmc.Place.Moves
module Stage1 = Twmc.Place.Stage1
module Stage2 = Twmc.Stage2
module Flow = Twmc.Flow
module Router = Twmc.Route.Global_router
module Extract = Twmc.Channel.Extract
module Graph = Twmc.Channel.Graph
module Pin_map = Twmc.Channel.Pin_map
module Diagnostic = Twmc.Robust.Diagnostic
module Lint = Twmc.Robust.Lint
module Check = Twmc.Robust.Check
module Rng = Twmc.Sa.Rng
module Synth = Twmc_workload.Synth
module Mutate = Twmc_workload.Mutate
module Oracle = Twmc_qa.Oracle
module Fingerprint = Twmc_qa.Fingerprint

(* ------------------------------------------------------------ workloads *)

type workload = {
  name : string;
  spec : Synth.spec;  (** Size of every generated circuit. *)
  constraints : string list;  (** As [twmc gen --constraints] takes them. *)
  a_c : int;  (** Attempted moves per cell per temperature. *)
  m_routes : int;  (** Alternative routes stored per net. *)
  route_effort : int;  (** Router search budget per alternative. *)
  circuits : int;
      (** Circuits per run.  Every timed pass runs each of them once, so all
          carry equal weight in a run's figures. *)
}

(* Why these three: each stresses a different layer, so an optimization of
   one layer has a workload that exercises it and one that bypasses it.
   [anneal] puts more cells on sparse nets at a light routing effort, so the
   stage-1 and stage-2 anneals (move evaluation) take about 85% of a flow;
   [route] puts few cells on dense nets at a heavier routing effort and
   anneals lightly, so channel definition and global routing take about
   two thirds; [constrained] is [anneal] plus blockages, keepouts, region
   locks and alignment rules, so every move also pays the C4 penalty path
   the other two never enter.
   Circuits are small so that a run averages over many of them. *)
let workloads =
  let spec = Synth.default_spec in
  [ { name = "anneal";
      spec = { spec with Synth.n_cells = 8; n_nets = 12; n_pins = 36 };
      constraints = [];
      a_c = 5; m_routes = 4; route_effort = 3; circuits = 40 };
    { name = "route";
      spec = { spec with Synth.n_cells = 4; n_nets = 20; n_pins = 64 };
      constraints = [];
      a_c = 1; m_routes = 10; route_effort = 6; circuits = 64 };
    { name = "constrained";
      spec = { spec with Synth.n_cells = 8; n_nets = 12; n_pins = 36 };
      constraints =
        [ "blockage:2"; "keepout:2"; "region0:1"; "boundary:1"; "align:2";
          "abut:1" ];
      a_c = 5; m_routes = 4; route_effort = 3; circuits = 40 } ]

(* Set-up is repeated and its median reported, so that one slow repetition
   does not move the figure. *)
let setup_repeats = 15

type circuit = {
  text : string;  (** The netlist as the program reads it (.twn). *)
  seed : int;  (** Flow seed. *)
  cell_area : int;
  n_nets : int;
}

let make_circuit w ~seed i =
  let s = (seed * 1000) + i in
  let nl =
    Synth.generate ~seed:s
      { w.spec with Synth.name = Printf.sprintf "%s-%d-%d" w.name seed i }
  in
  let mutators =
    List.map
      (fun m ->
        match Mutate.of_string m with
        | Some k -> k
        | None -> invalid_arg ("unknown constraint mutator " ^ m))
      w.constraints
  in
  let nl = Mutate.apply_all ~rng:(Rng.create ~seed:(s lxor 0x5a5a)) mutators nl in
  { text = Writer.to_string nl;
    seed = s;
    cell_area = Netlist.total_cell_area nl;
    n_nets = Netlist.n_nets nl }

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

(* Set-up: generate the circuits and validate each as [twmc check] does
   (parse, declaration lint, build, netlist lint). *)
let setup w ~seed =
  Array.init w.circuits (fun i ->
      let c = make_circuit w ~seed i in
      let r = Check.string ~file:(Printf.sprintf "circuit %d" i) c.text in
      if not (Check.ok r) then
        wrong "circuit %d fails the netlist check: %s" i
          (String.concat "; " (List.map Diagnostic.to_string r.Check.diagnostics));
      c)

let params w =
  { Params.default with
    Params.a_c = w.a_c;
    m_routes = w.m_routes;
    route_effort = w.route_effort }

(* ------------------------------------------------------------ measuring *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Host speed.  On a shared host the same code runs up to twice as slow for
   minutes at a time while neighbours contend for caches and memory
   bandwidth, which would swamp any change worth measuring.  So each timed
   piece of work is preceded by a calibration: the heap is collected, so
   the work inherits no GC debt, and a fixed kernel is timed.  The kernel
   is owned by this file and calls nothing in the program, so it moves with
   the host but never with a change to the program.  Every reported time is
   scaled by [reference_ms] over the kernel's time: it reads as the time on
   a host that runs the kernel in [reference_ms]. *)
let reference_ms = 9.0

let kernel_buf = Array.make (1 lsl 21) 0

(* The kinds of work a flow does: sorting, allocation that reaches the
   major heap, hashing, and random access over 16 MB. *)
let kernel () =
  let st = Random.State.make [| 7 |] in
  let a = Array.init 20000 (fun _ -> Random.State.float st 1.0) in
  Array.sort compare a;
  let l = List.init 20000 (fun i -> float_of_int i *. a.(i)) in
  let h = Hashtbl.create 1024 in
  List.iteri (fun i x -> if i mod 7 = 0 then Hashtbl.replace h (i mod 5000) x) l;
  let x = ref (Hashtbl.length h) in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (Array.length kernel_buf - 1) in
    kernel_buf.(j) <- kernel_buf.(j) + 1
  done

(* Returns the factor that scales the next measurement to reference speed. *)
let calibrate () =
  Gc.full_major ();
  let t0 = now_ns () in
  kernel ();
  reference_ms /. ms_of_ns (now_ns () - t0)

(* ------------------------------------------------------------ flows *)

let digest p route = Fingerprint.placement p ^ Fingerprint.route route

let final_route (s2 : Stage2.result) =
  match s2.Stage2.final_route with
  | Some route -> route
  | None -> wrong "no final routing"

(* The parse → lint → Flow.run path of a library user. *)
let run_flow w c =
  let nl = Parser.parse_string c.text in
  if Diagnostic.has_errors (Lint.netlist nl) then wrong "lint rejected the netlist";
  Flow.run ~params:(params w) ~seed:c.seed nl

type reference = {
  digest : string;  (** Every later run of the circuit must reproduce it. *)
  teil_ratio : float;
  area_ratio : float;
}

(* The first, untimed run of a circuit: its output is checked with the
   oracle pack (independent TEIL/C1 recomputation, route accounting and
   connectivity) and becomes the reference for the timed runs. *)
let reference w c =
  let r = run_flow w c in
  let p = r.Flow.stage2.Stage2.placement in
  let route = final_route r.Flow.stage2 in
  (match Oracle.check_placement p @ Oracle.check_route p route with
  | [] -> ()
  | f :: _ -> wrong "oracle %s: %s" f.Oracle.oracle f.Oracle.detail);
  (* Quality in size-free units: wire length per net in multiples of the
     side of the total cell area, and chip area per unit of cell area. *)
  let side = sqrt (float_of_int c.cell_area) in
  { digest = digest p route;
    teil_ratio = r.Flow.teil_final /. (float_of_int c.n_nets *. side);
    area_ratio = float_of_int r.Flow.area_final /. float_of_int c.cell_area }

(* Spans recorded here around layer calls and kept in memory: name, the
   enclosing span's name, duration, and minor-heap words allocated
   meanwhile (one domain runs everything). *)
type span = { name : string; parent : string; ms : float; words : float }

let spans : span list ref = ref []
let open_spans : string list ref = ref []
let stage1_moves = ref 0
let scale = ref 1.0  (** Host-speed factor of the flow being measured. *)

type mark = { t : int; w : float }

let mark () = { t = now_ns (); w = Gc.minor_words () }

let record name ~parent m0 m1 =
  spans :=
    { name; parent; ms = !scale *. ms_of_ns (m1.t - m0.t); words = m1.w -. m0.w }
    :: !spans

let span name f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := name :: !open_spans;
  let m0 = mark () in
  let v = Fun.protect ~finally:(fun () -> open_spans := List.tl !open_spans) f in
  record name ~parent m0 (mark ());
  v

(* [run_flow] composed from its layers (Flow.run is stage 1 then stage 2 on
   one generator), with a span per layer.  Stage 2 reports each finished
   refinement through its boundary callback, which splits it into the
   refinements and the final routing pass.  That final routing is then
   replayed from the generator state it started from, as channel
   definition and router spans, and must come out identical. *)
let traced_flow w c =
  let rng = Rng.create ~seed:c.seed in
  let before_final = ref (Rng.copy rng) in
  let s2 =
    span "flow" @@ fun () ->
    let nl = span "parse" (fun () -> Parser.parse_string c.text) in
    if Diagnostic.has_errors (span "lint" (fun () -> Lint.netlist nl)) then
      wrong "lint rejected the netlist";
    let s1 = span "stage1" (fun () -> Stage1.run ~params:(params w) ~rng nl) in
    stage1_moves := !stage1_moves + s1.Stage1.move_stats.Moves.attempts;
    span "stage2" @@ fun () ->
    let last = ref (mark ()) in
    let on_iteration _ =
      let m = mark () in
      record "refine" ~parent:"stage2" !last m;
      last := m;
      before_final := Rng.copy rng
    in
    let s2 = Stage2.run ~rng ~on_iteration s1 in
    record "final_route" ~parent:"stage2" !last (mark ());
    s2
  in
  let p = s2.Stage2.placement in
  let prm = Placement.params p in
  let route = final_route s2 in
  let graph =
    span "channels" (fun () ->
        Graph.build
          ~track_spacing:(Placement.netlist p).Netlist.track_spacing
          (Extract.of_placement p))
  in
  let tasks = span "channels" (fun () -> Pin_map.tasks graph p) in
  let replay =
    span "router" (fun () ->
        Router.route ~m:prm.Params.m_routes
          ~budget_factor:prm.Params.route_effort ~rng:!before_final ~graph
          ~tasks ())
  in
  if Fingerprint.route replay <> Fingerprint.route route then
    wrong "replayed final routing differs from the flow's";
  digest p route

(* ------------------------------------------------------------ output *)

let print_result ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite && failed = 0)
    (max 1 attempted) failed (String.concat ", " m)

(* ------------------------------------------------------------ runs *)

(* Run [f] over every circuit, pass after pass, until [seconds] have
   elapsed, completing the pass in progress.  [f] returns the circuit's
   output digest, which must equal its reference.  Also returns the mean
   kernel time in ms, a measure of how loaded the host was. *)
let timed_passes ~seconds cs refs f =
  let attempted = ref 0 and failed = ref 0 and kernel_ms = ref 0.0 in
  let times = Array.make (Array.length cs) [] in
  let fail i m =
    incr failed;
    Printf.printf "circuit %d: %s\n" i m
  in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < t_end do
    Array.iteri
      (fun i c ->
        incr attempted;
        scale := calibrate ();
        kernel_ms := !kernel_ms +. (reference_ms /. !scale);
        let t0 = now_ns () in
        match f c with
        | d ->
            times.(i) <- (!scale *. ms_of_ns (now_ns () - t0)) :: times.(i);
            if d <> refs.(i).digest then fail i "output differs from its first run"
        | exception Wrong m -> fail i m
        | exception e -> fail i (Printexc.to_string e))
      cs
  done;
  (!attempted, !failed, times, !kernel_ms /. float_of_int (max 1 !attempted))

let end_to_end_metrics ~setup_s ~times refs =
  let quality f = mean (Array.to_list (Array.map f refs)) in
  [ ("flow_ms", mean (List.map median (Array.to_list times)), "ms");
    ("teil_ratio", quality (fun r -> r.teil_ratio), "ratio");
    ("area_ratio", quality (fun r -> r.area_ratio), "ratio");
    ("setup_s", setup_s, "s") ]

let per_layer_metrics ~flows ~kernel_ms =
  let sum f keep =
    List.fold_left (fun a s -> if keep s then a +. f s else a) 0.0 !spans
  in
  let ms s = s.ms and words s = s.words in
  (* A layer's self time is its spans' time minus that of their children. *)
  let self_ms name =
    (sum ms (fun s -> s.name = name) -. sum ms (fun s -> s.parent = name))
    /. flows
  in
  let words_per_flow name = sum words (fun s -> s.name = name) /. flows in
  let kwords name = words_per_flow name /. 1e3 in
  let moves = float_of_int !stage1_moves /. flows in
  [ ("flow_traced_ms", sum ms (fun s -> s.name = "flow") /. flows, "ms");
    ("parse_ms", self_ms "parse", "ms");
    ("lint_ms", self_ms "lint", "ms");
    ("stage1_ms", self_ms "stage1", "ms");
    ("stage1_move_us", self_ms "stage1" *. 1e3 /. moves, "us");
    ("stage1_move_words", words_per_flow "stage1" /. moves, "words");
    ("refine_ms", self_ms "refine", "ms");
    ("refine_kwords", kwords "refine", "kwords");
    ("final_route_ms", self_ms "final_route", "ms");
    ("channels_ms", self_ms "channels", "ms");
    ("channels_kwords", kwords "channels", "kwords");
    ("router_ms", self_ms "router", "ms");
    ("router_kwords", kwords "router", "kwords");
    ("kernel_ms", kernel_ms, "ms") ]

let run w ~seed ~seconds ~trace =
  let setup_times = ref [] and cs = ref [||] in
  for _ = 1 to setup_repeats do
    let scale = calibrate () in
    let t0 = now_ns () in
    cs := setup w ~seed;
    setup_times := (scale *. ms_of_ns (now_ns () - t0) /. 1e3) :: !setup_times
  done;
  let cs = !cs in
  let refs = Array.map (reference w) cs in
  if not trace then begin
    let attempted, failed, times, _ =
      timed_passes ~seconds cs refs (fun c ->
          let r = run_flow w c in
          digest r.Flow.stage2.Stage2.placement (final_route r.Flow.stage2))
    in
    Printf.printf "median flow ms per circuit: %s\n"
      (String.concat " "
         (Array.to_list
            (Array.map (fun t -> Printf.sprintf "%.1f" (median t)) times)));
    print_result ~correct:true ~attempted ~failed
      (end_to_end_metrics ~setup_s:(median !setup_times) ~times refs)
  end
  else begin
    let attempted, failed, _, kernel_ms =
      timed_passes ~seconds cs refs (traced_flow w)
    in
    print_result ~correct:true ~attempted ~failed
      (per_layer_metrics ~flows:(float_of_int (max 1 attempted)) ~kernel_ms)
  end

(* ------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  let usage =
    "flowbench --workload "
    ^ String.concat "|" (List.map (fun (w : workload) -> w.name) workloads)
    ^ " --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
  | Some w when (!trace = 0 || !trace = 1) && !seed >= 0 && !seconds > 0.0 -> (
      try run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      with Wrong m ->
        (* Set-up or a reference run failed: nothing could be measured. *)
        Printf.printf "%s\n" m;
        print_result ~correct:false ~attempted:1 ~failed:1 [])
  | _ ->
      prerr_endline usage;
      exit 2
