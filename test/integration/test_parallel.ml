(* Determinism tests for the multicore layer: the pool is pure mechanism —
   for fixed (seed, K) every observable result must be byte-identical
   whatever the number of domains.  The worker count under test defaults to
   4 and can be overridden via TWMC_TEST_JOBS (CI runs the suite at 2 as
   well), so no assertion here may depend on wall-clock time or on the
   actual parallelism achieved. *)

module Pool = Twmc_util.Domain_pool
module Rng = Twmc_sa.Rng
module Stage1 = Twmc_place.Stage1
module Placement = Twmc_place.Placement
module Synth = Twmc_workload.Synth

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_jobs =
  match Sys.getenv_opt "TWMC_TEST_JOBS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

(* ------------------------------------------------------------ the pool *)

let test_pool_map_identity () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let input = Array.init 1000 (fun i -> i) in
      let f i x = (i * 31) + (x * x) in
      Alcotest.(check (array int))
        "parallel = sequential" (Array.mapi f input)
        (Pool.parallel_map pool ~f input);
      (* Spawn-once: the same pool serves many batches. *)
      for n = 0 to 10 do
        let a = Array.init n string_of_int in
        Alcotest.(check (array string))
          (Printf.sprintf "batch size %d" n)
          a
          (Pool.parallel_map pool ~f:(fun _ s -> s) a)
      done)

let test_pool_jobs_invariance () =
  let input = Array.init 257 (fun i -> i) in
  let f _ x = float_of_int x ** 1.5 in
  let expected = Array.mapi f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "jobs=%d bit-identical" jobs)
            expected
            (Pool.parallel_map pool ~f input)))
    [ 1; 2; 3; test_jobs ]

exception Boom of int

let test_pool_exception () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      (try
         ignore
           (Pool.parallel_map pool
              ~f:(fun i x -> if i = 500 then raise (Boom x) else x)
              (Array.init 1000 Fun.id));
         Alcotest.fail "expected Boom"
       with Boom v -> check "payload" 500 v);
      (* The pool survives a raising batch. *)
      check "usable after exception" 42
        (Pool.parallel_map pool ~f:(fun _ x -> x) [| 42 |]).(0))

let test_pool_run () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let r = Pool.run pool (List.init 10 (fun i () -> i * i)) in
      Alcotest.(check (array int)) "thunk order" (Array.init 10 (fun i -> i * i)) r)

(* --------------------------------------------------- Rng.split streams *)

let draws rng n = List.init n (fun _ -> Rng.int_incl rng 0 1_000_000)

let test_split_child_independent_of_parent_draws () =
  (* The child's stream is fixed at the split: whatever the parent draws
     afterwards (and in whatever order child/parent are consumed), the
     child replays the same stream. *)
  let p1 = Rng.create ~seed:99 in
  let c1 = Rng.split p1 in
  let child_ref = draws c1 50 in
  let parent_ref = draws p1 50 in
  let p2 = Rng.create ~seed:99 in
  let c2 = Rng.split p2 in
  let _parent_first = draws p2 50 in
  Alcotest.(check (list int))
    "child stream unchanged by earlier parent draws" child_ref (draws c2 50);
  let p3 = Rng.create ~seed:99 in
  let c3 = Rng.split p3 in
  let _child_first = draws c3 50 in
  Alcotest.(check (list int))
    "parent stream unchanged by earlier child draws" parent_ref (draws p3 50)

let test_split_children_distinct () =
  let p = Rng.create ~seed:7 in
  let kids = Array.init 4 (fun _ -> Rng.split p) in
  let streams = Array.map (fun k -> draws k 20) kids in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      checkb
        (Printf.sprintf "children %d,%d differ" i j)
        true
        (streams.(i) <> streams.(j))
    done
  done

(* ------------------------------------------- best-of-K jobs invariance *)

let small_nl =
  lazy
    (Synth.generate ~seed:21
       { Synth.default_spec with
         Synth.n_cells = 8;
         n_nets = 24;
         n_pins = 80;
         frac_custom = 0.4 })

let quick_params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 15 }

(* Byte-for-byte placement observation: positions, orientations, variants
   and pin-site assignments of every cell. *)
let placement_bytes p =
  let nl = Placement.netlist p in
  let b = Buffer.create 256 in
  for ci = 0 to Twmc_netlist.Netlist.n_cells nl - 1 do
    let x, y = Placement.cell_pos p ci in
    Buffer.add_string b
      (Printf.sprintf "%d:%d,%d,%s,%d;" ci x y
         (Twmc_geometry.Orient.to_string (Placement.cell_orient p ci))
         (Placement.cell_variant p ci));
    let cell = nl.Twmc_netlist.Netlist.cells.(ci) in
    Array.iteri
      (fun pi _ ->
        Buffer.add_string b
          (Printf.sprintf "%d " (Placement.site_of_pin p ~cell:ci ~pin:pi)))
      cell.Twmc_netlist.Cell.pins
  done;
  Buffer.contents b

let best_of_k ~jobs ~k nl =
  let rng = Rng.create ~seed:5 in
  let run pool = Stage1.run_best_of_k ~params:quick_params ?pool ~rng ~k nl in
  if jobs <= 1 then run None
  else Pool.with_pool ~jobs (fun p -> run (Some p))

let test_best_of_k_jobs_invariant () =
  let nl = Lazy.force small_nl in
  let seq = best_of_k ~jobs:1 ~k:4 nl in
  let par = best_of_k ~jobs:test_jobs ~k:4 nl in
  check "same winner" seq.Stage1.best_index par.Stage1.best_index;
  Alcotest.(check (array (float 0.0)))
    "identical replica costs" seq.Stage1.replica_costs par.Stage1.replica_costs;
  Alcotest.(check string)
    "byte-identical winning placement"
    (placement_bytes seq.Stage1.best.Stage1.placement)
    (placement_bytes par.Stage1.best.Stage1.placement)

let test_best_of_k_tie_break () =
  (* k = 1 degenerates to a plain run seeded by the first split child. *)
  let nl = Lazy.force small_nl in
  let mr = best_of_k ~jobs:1 ~k:1 nl in
  check "single replica wins" 0 mr.Stage1.best_index;
  let rng = Rng.create ~seed:5 in
  let child = Rng.split rng in
  let direct = Stage1.run ~params:quick_params ~rng:child nl in
  Alcotest.(check string)
    "k=1 equals direct run on the split stream"
    (placement_bytes direct.Stage1.placement)
    (placement_bytes mr.Stage1.best.Stage1.placement)

(* -------------------------------------------------- router invariance *)

let route_bytes (r : Twmc_route.Global_router.result) =
  let b = Buffer.create 256 in
  List.iter
    (fun (rn : Twmc_route.Global_router.routed_net) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%d:%s;" rn.Twmc_route.Global_router.net
           rn.Twmc_route.Global_router.route.Twmc_route.Steiner.length
           (String.concat ","
              (List.map string_of_int
                 rn.Twmc_route.Global_router.route.Twmc_route.Steiner.edges))))
    r.Twmc_route.Global_router.routed;
  Buffer.add_string b
    (Printf.sprintf "|L=%d X=%d unroutable=%s"
       r.Twmc_route.Global_router.total_length
       r.Twmc_route.Global_router.overflow
       (String.concat ","
          (List.map string_of_int r.Twmc_route.Global_router.unroutable)));
  Buffer.contents b

let routing_scene =
  lazy
    (let nl = Lazy.force small_nl in
     let rng = Rng.create ~seed:9 in
     let s1 = Stage1.run ~params:quick_params ~rng nl in
     let p = s1.Stage1.placement in
     let regions = Twmc_channel.Extract.of_placement p in
     let g =
       Twmc_channel.Graph.build
         ~track_spacing:nl.Twmc_netlist.Netlist.track_spacing regions
     in
     (g, Twmc_channel.Pin_map.tasks g p))

let route ~jobs (g, tasks) =
  let run pool =
    Twmc_route.Global_router.route ~m:6 ?pool ~rng:(Rng.create ~seed:2)
      ~graph:g ~tasks ()
  in
  if jobs <= 1 then run None
  else Pool.with_pool ~jobs (fun p -> run (Some p))

let test_router_jobs_invariant () =
  let scene = Lazy.force routing_scene in
  Alcotest.(check string)
    "byte-identical routing"
    (route_bytes (route ~jobs:1 scene))
    (route_bytes (route ~jobs:test_jobs scene))

(* ------------------------------------------------ full-flow invariance *)

let flow_bytes (r : Twmc.Flow.result) =
  placement_bytes r.Twmc.Flow.stage2.Twmc.Stage2.placement
  ^
  match r.Twmc.Flow.stage2.Twmc.Stage2.final_route with
  | None -> "|noroute"
  | Some route -> "|" ^ route_bytes route

let test_flow_jobs_invariant () =
  let nl = Lazy.force small_nl in
  let params =
    { quick_params with Twmc_place.Params.refinement_iterations = 1 }
  in
  let seq = Twmc.Flow.run ~params ~seed:3 ~jobs:1 ~replicas:2 nl in
  let par = Twmc.Flow.run ~params ~seed:3 ~jobs:test_jobs ~replicas:2 nl in
  Alcotest.(check string)
    "byte-identical flow result" (flow_bytes seq) (flow_bytes par)

(* The constrained flow must be jobs-invariant too: the constraint veto in
   move generation and the C4 accumulators run identically whether the
   replicas execute sequentially or on a domain pool. *)
let test_constrained_flow_jobs_invariant () =
  let module Mutate = Twmc_workload.Mutate in
  let nl =
    Mutate.apply_all
      ~rng:(Rng.create ~seed:(21 lxor 0x5a5a))
      [ Mutate.Add_blockages 2; Mutate.Conflicting_fixed 1;
        Mutate.Zero_slack_regions 1; Mutate.Tight_density 1 ]
      (Lazy.force small_nl)
  in
  Alcotest.(check bool)
    "netlist is constrained" true
    (Twmc_netlist.Netlist.n_constraints nl > 0);
  let params =
    { quick_params with Twmc_place.Params.refinement_iterations = 1 }
  in
  let seq = Twmc.Flow.run ~params ~seed:3 ~jobs:1 ~replicas:2 nl in
  let par = Twmc.Flow.run ~params ~seed:3 ~jobs:test_jobs ~replicas:2 nl in
  Alcotest.(check string)
    "byte-identical constrained flow result" (flow_bytes seq) (flow_bytes par);
  Alcotest.(check string)
    "identical flow digests"
    (Twmc_qa.Fingerprint.flow seq)
    (Twmc_qa.Fingerprint.flow par)

(* [Flow.run] is the guarded driver with its defaults: on a netlist that
   lints clean and never trips a guard it must produce exactly the flow
   [run_resilient] produces, at any [jobs]. *)
let test_run_is_resilient_flow () =
  let nl =
    Twmc_netlist.Parser.parse_file
      (List.find Sys.file_exists
         [ "../../examples/netlists/small.twn"; "examples/netlists/small.twn" ])
  in
  List.iter
    (fun jobs ->
      let plain =
        Twmc.Flow.run ~params:quick_params ~seed:3 ~jobs ~replicas:2 nl
      in
      let rr =
        Twmc.Flow.run_resilient ~params:quick_params ~seed:3 ~jobs ~replicas:2
          nl
      in
      match rr.Twmc.Flow.flow with
      | None -> Alcotest.fail "run_resilient produced no flow"
      | Some guarded ->
          Alcotest.(check string)
            (Printf.sprintf "flow digest, jobs=%d" jobs)
            (Twmc_qa.Fingerprint.flow plain)
            (Twmc_qa.Fingerprint.flow guarded))
    [ 1; test_jobs ]

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "map identity" `Quick test_pool_map_identity;
          Alcotest.test_case "jobs invariance" `Quick test_pool_jobs_invariance;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "run thunks" `Quick test_pool_run ] );
      ( "rng",
        [ Alcotest.test_case "split independent of draw order" `Quick
            test_split_child_independent_of_parent_draws;
          Alcotest.test_case "split children distinct" `Quick
            test_split_children_distinct ] );
      ( "determinism",
        [ Alcotest.test_case "best-of-K jobs=1 vs jobs=N" `Quick
            test_best_of_k_jobs_invariant;
          Alcotest.test_case "best-of-1 tie-break/degenerate" `Quick
            test_best_of_k_tie_break;
          Alcotest.test_case "router jobs=1 vs jobs=N" `Quick
            test_router_jobs_invariant;
          Alcotest.test_case "flow jobs=1 vs jobs=N" `Quick
            test_flow_jobs_invariant;
          Alcotest.test_case "constrained flow jobs=1 vs jobs=N" `Quick
            test_constrained_flow_jobs_invariant;
          Alcotest.test_case "run = run_resilient flow" `Quick
            test_run_is_resilient_flow ] ) ]
