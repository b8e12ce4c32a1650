(* Tests for the synthetic workload generator and the nine paper circuits. *)

open Twmc_workload
open Twmc_netlist

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_counts_exact () =
  List.iter
    (fun (cells, nets, pins) ->
      let spec =
        { Synth.default_spec with Synth.n_cells = cells; n_nets = nets; n_pins = pins }
      in
      let nl = Synth.generate ~seed:1 spec in
      check "cells" cells (Netlist.n_cells nl);
      check "nets" nets (Netlist.n_nets nl);
      check "pins" pins (Netlist.total_pins nl))
    [ (5, 10, 40); (25, 100, 360); (40, 150, 560) ]

let test_net_degrees () =
  let nl = Synth.generate ~seed:2 Synth.default_spec in
  Array.iter
    (fun (n : Net.t) -> checkb "degree >= 2" true (Net.n_pins n >= 2))
    nl.Netlist.nets

let test_determinism () =
  let a = Synth.generate ~seed:7 Synth.default_spec in
  let b = Synth.generate ~seed:7 Synth.default_spec in
  Alcotest.(check string)
    "identical output" (Writer.to_string a) (Writer.to_string b);
  let c = Synth.generate ~seed:8 Synth.default_spec in
  checkb "seeds differ" true (Writer.to_string a <> Writer.to_string c)

let test_mixture () =
  let spec =
    { Synth.default_spec with
      Synth.n_cells = 30;
      n_nets = 80;
      n_pins = 300;
      frac_custom = 0.5 }
  in
  let nl = Synth.generate ~seed:3 spec in
  let s = Stats.of_netlist nl in
  checkb "some customs" true (s.Stats.n_custom > 0);
  checkb "some macros" true (s.Stats.n_macro > 0);
  (* Rectilinear macros appear with frac_rectilinear = 0.25. *)
  checkb "some rectilinear macros" true
    (Array.exists
       (fun (c : Cell.t) ->
         c.Cell.kind = Cell.Macro
         && List.length (Cell.variant c 0).Cell.edges > 4)
       nl.Netlist.cells)

let test_equivalent_pins () =
  (* Many pins on few cells forces repeated net-cell incidences, which the
     generator converts to electrically-equivalent pins. *)
  let spec =
    { Synth.default_spec with
      Synth.n_cells = 3;
      n_nets = 10;
      n_pins = 60;
      frac_custom = 0.0 }
  in
  let nl = Synth.generate ~seed:4 spec in
  checkb "equiv classes exist" true
    (Array.exists
       (fun (c : Cell.t) ->
         Array.exists (fun (p : Pin.t) -> p.Pin.equiv <> None) c.Cell.pins)
       nl.Netlist.cells)

(* Each rejected spec raises [Invalid_argument] naming the field it
   rejects and that field's value, before any count reaches the
   generator. *)
let test_invalid_specs () =
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (what, spec, field) ->
      match Synth.generate spec with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument m ->
          if not (contains m field) then
            Alcotest.failf "%s: %S does not name %S" what m field)
    [ ( "too few pins",
        { Synth.default_spec with Synth.n_nets = 100; n_pins = 150 },
        "n_pins = 150" );
      ("one cell", { Synth.default_spec with Synth.n_cells = 1 }, "n_cells = 1");
      ( "negative nets",
        { Synth.default_spec with Synth.n_nets = -5 },
        "n_nets = -5" );
      ("no nets", { Synth.default_spec with Synth.n_nets = 0 }, "n_nets = 0");
      ( "fewer pins than cells",
        { Synth.default_spec with Synth.n_cells = 30; n_nets = 10; n_pins = 25 },
        "n_pins = 25" ) ]

let test_circuits_table () =
  check "nine circuits" 9 (List.length Circuits.names);
  List.iter
    (fun name ->
      let spec = Circuits.spec name in
      let nl = Circuits.netlist ~seed:1 name in
      check (name ^ " cells") spec.Synth.n_cells (Netlist.n_cells nl);
      check (name ^ " nets") spec.Synth.n_nets (Netlist.n_nets nl);
      check (name ^ " pins") spec.Synth.n_pins (Netlist.total_pins nl);
      checkb (name ^ " trials") true (Circuits.trials name >= 2))
    Circuits.names;
  (* The published counts for a couple of circuits. *)
  let l1 = Circuits.spec "l1" in
  check "l1 cells" 62 l1.Synth.n_cells;
  check "l1 pins" 4309 l1.Synth.n_pins;
  let x1 = Circuits.spec "x1" in
  check "x1 nets" 267 x1.Synth.n_nets;
  check "paper table3 rows" 9 (List.length Circuits.paper_table3);
  check "paper table4 rows" 9 (List.length Circuits.paper_table4)

(* ------------------------------------------- generator edge cases *)

(* The corners the fuzzer leans on: the absolute-minimum pin budget
   (n_pins = 2·n_nets — every net exactly two pins), every macro
   rectilinear, and the smallest legal circuit. *)

let test_minimum_pin_budget () =
  List.iter
    (fun (cells, nets) ->
      let spec =
        { Synth.default_spec with
          Synth.n_cells = cells;
          n_nets = nets;
          n_pins = 2 * nets }
      in
      let nl = Synth.generate ~seed:9 spec in
      check "pins" (2 * nets) (Netlist.total_pins nl);
      Array.iter
        (fun (n : Net.t) -> check "every net exactly 2 pins" 2 (Net.n_pins n))
        nl.Netlist.nets)
    (* n_pins >= n_cells is part of the generator's contract (every cell
       carries at least one pin), so the budget floor is
       max (2·n_nets) n_cells. *)
    [ (2, 1); (3, 5); (10, 20); (6, 3) ]

let test_all_rectilinear () =
  let spec =
    { Synth.default_spec with
      Synth.n_cells = 12;
      n_nets = 20;
      n_pins = 60;
      frac_custom = 0.0;
      frac_rectilinear = 1.0 }
  in
  let nl = Synth.generate ~seed:4 spec in
  check "cells" 12 (Netlist.n_cells nl);
  (* With every macro eligible, at least one must actually be L/T/U. *)
  let rectilinear =
    Array.exists
      (fun (c : Cell.t) ->
        List.length (Twmc_geometry.Shape.tiles (Cell.variant c 0).Cell.shape)
        > 1)
      nl.Netlist.cells
  in
  checkb "some rectilinear macros" true rectilinear

let test_two_cell_circuit () =
  let spec =
    { Synth.default_spec with Synth.n_cells = 2; n_nets = 1; n_pins = 2 }
  in
  let nl = Synth.generate ~seed:1 spec in
  check "cells" 2 (Netlist.n_cells nl);
  check "nets" 1 (Netlist.n_nets nl);
  check "pins" 2 (Netlist.total_pins nl)

let qcheck_edge_specs =
  QCheck.Test.make ~name:"generate is total on edge specs" ~count:80
    QCheck.(
      quad (int_range 2 12) (int_range 1 24) (int_range 0 12) bool)
    (fun (cells0, nets0, extra0, all_rect) ->
      (* QCheck's shrinker can step outside int_range, so re-clamp here;
         the pin budget must honor both floors of the generator's
         contract: 2 pins per net and at least one pin per cell. *)
      let cells = max 2 cells0 and nets = max 1 nets0 in
      let pins = max ((2 * nets) + max 0 extra0) cells in
      let spec =
        { Synth.default_spec with
          Synth.n_cells = cells;
          n_nets = nets;
          n_pins = pins;
          frac_custom = (if all_rect then 0.0 else 0.5);
          frac_rectilinear = (if all_rect then 1.0 else 0.25) }
      in
      (* Netlist.make runs full validation, so a clean return *is* the
         property; the counts pin the generator's contract. *)
      let nl = Synth.generate ~seed:17 spec in
      Netlist.n_cells nl = cells
      && Netlist.n_nets nl = nets
      && Netlist.total_pins nl = pins
      && Array.for_all (fun (n : Net.t) -> Net.n_pins n >= 2) nl.Netlist.nets)

(* ----------------------------------------------------------- mutators *)

let mutated kind seed =
  let nl =
    Synth.generate ~seed
      { Synth.default_spec with Synth.n_cells = 10; n_nets = 24; n_pins = 70 }
  in
  (nl, Mutate.apply ~rng:(Twmc_sa.Rng.create ~seed:99) kind nl)

let test_mutators_build_valid_netlists () =
  List.iter
    (fun kind ->
      let _, nl' = mutated kind 5 in
      (* Rebuilding through Builder re-ran validation; also spot-check the
         structural invariants survive. *)
      Array.iter
        (fun (n : Net.t) ->
          checkb
            (Mutate.to_string kind ^ ": net degree")
            true (Net.n_pins n >= 2))
        nl'.Netlist.nets)
    Mutate.all_kinds

let test_mutators_deterministic () =
  List.iter
    (fun kind ->
      let _, a = mutated kind 5 in
      let _, b = mutated kind 5 in
      Alcotest.(check string)
        (Mutate.to_string kind ^ ": deterministic")
        (Writer.to_string a) (Writer.to_string b))
    Mutate.all_kinds

let test_mutator_strings_roundtrip () =
  List.iter
    (fun kind ->
      match Mutate.of_string (Mutate.to_string kind) with
      | Some k ->
          Alcotest.(check string)
            "round-trip" (Mutate.to_string kind) (Mutate.to_string k)
      | None -> Alcotest.failf "%s did not parse back" (Mutate.to_string kind))
    Mutate.all_kinds;
  checkb "garbage rejected" true (Mutate.of_string "wibble:3" = None)

let test_bridge_leaves_single_spanning_net () =
  let nl, nl' = mutated Mutate.Near_disconnected 5 in
  let spanning (nl : Netlist.t) =
    let half ci = if ci < Netlist.n_cells nl / 2 then 0 else 1 in
    Array.to_list nl.Netlist.nets
    |> List.filter (fun (n : Net.t) ->
           let halves =
             Array.to_list n.Net.pins
             |> List.map (fun (r : Net.pin_ref) -> half r.Net.cell)
             |> List.sort_uniq compare
           in
           List.length halves = 2)
    |> List.length
  in
  checkb "original had several spanning nets" true (spanning nl > 1);
  check "exactly one bridge remains" 1 (spanning nl')

(* ------------------------------------------------- constructed optima *)

(* Everything here re-derives the claims locally — the Twmc_qa certificate
   checker is deliberately not used, so generator and checker stay
   independent witnesses. *)

let peko_spec ?(n = 25) ?(locality = 0.7) ?(utilization = 0.5) () =
  { Peko.default_spec with
    Peko.n_cells = n;
    locality;
    utilization }

let test_peko_opt_span_table () =
  (* min_c (c + ceil(k/c)) - 2, by hand. *)
  List.iter
    (fun (k, expect) -> check (Printf.sprintf "opt_span %d" k) expect (Peko.opt_span k))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (6, 3); (7, 4); (9, 4);
      (12, 5); (16, 6); (20, 7) ]

let test_peko_deterministic () =
  let nl_a, cert_a = Peko.generate ~seed:11 (peko_spec ()) in
  let nl_b, cert_b = Peko.generate ~seed:11 (peko_spec ()) in
  Alcotest.(check string)
    "netlist bytes" (Writer.to_string nl_a) (Writer.to_string nl_b);
  Alcotest.(check string)
    "certificate bytes"
    (Peko.certificate_to_string cert_a)
    (Peko.certificate_to_string cert_b)

let peko_tile (cert : Peko.certificate) i =
  let s = cert.Peko.spec.Peko.cell_side in
  let cx, cy = cert.Peko.positions.(i) in
  Twmc_geometry.Rect.of_center_dims ~cx ~cy ~w:s ~h:s

let test_peko_overlap_free_and_in_core () =
  List.iter
    (fun (n, u) ->
      let _nl, cert = Peko.generate ~seed:3 (peko_spec ~n ~utilization:u ()) in
      let tiles = Array.init n (peko_tile cert) in
      checkb "pairwise disjoint" true
        (Twmc_geometry.Rect.pairwise_disjoint (Array.to_list tiles));
      Array.iter
        (fun t ->
          checkb "inside core" true
            (Twmc_geometry.Rect.contains_rect cert.Peko.core t))
        tiles)
    [ (2, 1.0); (9, 0.5); (25, 0.9); (40, 0.3) ]

let test_peko_achieves_claim () =
  (* The certified placement's TEIL, summed net by net from the certified
     centers, must equal the claimed optimum exactly. *)
  let nl, cert = Peko.generate ~seed:5 (peko_spec ~n:30 ()) in
  let teil = ref 0.0 in
  Array.iter
    (fun (net : Net.t) ->
      let xs = ref [] and ys = ref [] in
      Array.iter
        (fun (r : Net.pin_ref) ->
          let x, y = cert.Peko.positions.(r.Net.cell) in
          xs := x :: !xs;
          ys := y :: !ys)
        net.Net.pins;
      let span l =
        List.fold_left max min_int l - List.fold_left min max_int l
      in
      teil := !teil +. float_of_int (span !xs + span !ys))
    nl.Netlist.nets;
  Alcotest.(check (float 1e-9)) "achieved = claimed" cert.Peko.optimal_teil !teil

let test_peko_every_cell_on_a_net () =
  List.iter
    (fun seed ->
      let nl, _ = Peko.generate ~seed (peko_spec ~n:23 ()) in
      let on_net = Array.make (Netlist.n_cells nl) false in
      Array.iter
        (fun (net : Net.t) ->
          Array.iter
            (fun (r : Net.pin_ref) -> on_net.(r.Net.cell) <- true)
            net.Net.pins)
        nl.Netlist.nets;
      Array.iteri
        (fun i b -> checkb (Printf.sprintf "cell %d on a net" i) true b)
        on_net)
    [ 1; 2; 3 ]

let test_peko_pins_at_center () =
  let nl, _ = Peko.generate ~seed:9 (peko_spec ()) in
  Array.iter
    (fun (c : Cell.t) ->
      check "one variant" 1 (Array.length c.Cell.variants);
      Array.iter
        (fun (p : Pin.t) ->
          match p.Pin.loc with
          | Pin.Fixed (0, 0) -> ()
          | _ -> Alcotest.failf "pin %s.%s not at the center" c.Cell.name p.Pin.name)
        c.Cell.pins)
    nl.Netlist.cells

let test_peko_certificate_roundtrip () =
  let _nl, cert = Peko.generate ~seed:21 (peko_spec ~n:12 ()) in
  match Peko.certificate_of_string (Peko.certificate_to_string cert) with
  | Error m -> Alcotest.failf "round-trip failed: %s" m
  | Ok cert' ->
      Alcotest.(check string)
        "bytes stable"
        (Peko.certificate_to_string cert)
        (Peko.certificate_to_string cert');
      checkb "optimal equal" true
        (cert.Peko.optimal_teil = cert'.Peko.optimal_teil)

let test_peko_invalid_specs () =
  let expect_invalid name spec =
    match Peko.generate ~seed:1 spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "one cell" { (peko_spec ()) with Peko.n_cells = 1 };
  expect_invalid "odd side" { (peko_spec ()) with Peko.cell_side = 7 };
  expect_invalid "zero util" { (peko_spec ()) with Peko.utilization = 0.0 };
  expect_invalid "util > 1" { (peko_spec ()) with Peko.utilization = 1.5 };
  expect_invalid "bad locality" { (peko_spec ()) with Peko.locality = 2.0 };
  expect_invalid "degree 1" { (peko_spec ()) with Peko.max_degree = 1 };
  expect_invalid "no nets" { (peko_spec ()) with Peko.nets_per_cell = 0.0 }

let test_peko_locality_one_all_two_pin () =
  let nl, _ = Peko.generate ~seed:2 (peko_spec ~locality:1.0 ()) in
  Array.iter
    (fun (net : Net.t) ->
      let hosts =
        Array.to_list net.Net.pins
        |> List.map (fun (r : Net.pin_ref) -> r.Net.cell)
        |> List.sort_uniq compare
      in
      check "2-pin net" 2 (List.length hosts))
    nl.Netlist.nets

let qcheck_peko_construction =
  QCheck.Test.make ~name:"peko bound is achieved on every spec" ~count:60
    QCheck.(
      quad (int_range 2 60) (int_range 0 10) (int_range 1 10) (int_range 0 9999))
    (fun (n0, loc10, util10, seed) ->
      let n = max 2 n0 in
      let locality = float_of_int (min 10 (max 0 loc10)) /. 10.0 in
      let utilization = float_of_int (min 10 (max 1 util10)) /. 10.0 in
      let nl, cert =
        Peko.generate ~seed (peko_spec ~n ~locality ~utilization ())
      in
      (* Overlap-free, in-core, and the claim equals the per-net bound
         recomputed from the actual net degrees. *)
      let tiles = Array.init n (peko_tile cert) in
      let s = cert.Peko.spec.Peko.cell_side in
      let bound = ref 0.0 in
      Array.iter
        (fun (net : Net.t) ->
          let hosts =
            Array.to_list net.Net.pins
            |> List.map (fun (r : Net.pin_ref) -> r.Net.cell)
            |> List.sort_uniq compare
          in
          bound := !bound +. float_of_int (Peko.opt_span (List.length hosts) * s))
        nl.Netlist.nets;
      Twmc_geometry.Rect.pairwise_disjoint (Array.to_list tiles)
      && Array.for_all
           (Twmc_geometry.Rect.contains_rect cert.Peko.core)
           tiles
      && Float.abs (!bound -. cert.Peko.optimal_teil) <= 1e-9)

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "workload"
    [ ( "synth",
        [ Alcotest.test_case "exact counts" `Quick test_counts_exact;
          Alcotest.test_case "net degrees" `Quick test_net_degrees;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "cell mixture" `Quick test_mixture;
          Alcotest.test_case "equivalent pins" `Quick test_equivalent_pins;
          Alcotest.test_case "invalid specs" `Quick test_invalid_specs ] );
      ( "edge-cases",
        Alcotest.test_case "minimum pin budget" `Quick test_minimum_pin_budget
        :: Alcotest.test_case "all rectilinear" `Quick test_all_rectilinear
        :: Alcotest.test_case "two-cell circuit" `Quick test_two_cell_circuit
        :: qt [ qcheck_edge_specs ] );
      ( "peko",
        Alcotest.test_case "opt_span table" `Quick test_peko_opt_span_table
        :: Alcotest.test_case "deterministic" `Quick test_peko_deterministic
        :: Alcotest.test_case "overlap-free, in-core" `Quick
             test_peko_overlap_free_and_in_core
        :: Alcotest.test_case "achieves claimed optimum" `Quick
             test_peko_achieves_claim
        :: Alcotest.test_case "every cell on a net" `Quick
             test_peko_every_cell_on_a_net
        :: Alcotest.test_case "pins at cell centers" `Quick
             test_peko_pins_at_center
        :: Alcotest.test_case "certificate round-trip" `Quick
             test_peko_certificate_roundtrip
        :: Alcotest.test_case "invalid specs" `Quick test_peko_invalid_specs
        :: Alcotest.test_case "locality 1 means 2-pin nets" `Quick
             test_peko_locality_one_all_two_pin
        :: qt [ qcheck_peko_construction ] );
      ( "mutate",
        [ Alcotest.test_case "valid netlists" `Quick
            test_mutators_build_valid_netlists;
          Alcotest.test_case "deterministic" `Quick test_mutators_deterministic;
          Alcotest.test_case "strings round-trip" `Quick
            test_mutator_strings_roundtrip;
          Alcotest.test_case "bridge topology" `Quick
            test_bridge_leaves_single_spanning_net ] );
      ("circuits", [ Alcotest.test_case "paper table" `Quick test_circuits_table ]) ]
