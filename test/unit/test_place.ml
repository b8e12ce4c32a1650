(* Tests for the placement state, cost function, range limiter, move
   generator, annealing loop and stage-1 driver. *)

open Twmc_place
open Twmc_netlist
module Rect = Twmc_geometry.Rect
module Shape = Twmc_geometry.Shape
module Orient = Twmc_geometry.Orient
module Rng = Twmc_sa.Rng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

(* Two simple macro cells connected by two nets; easy to reason about. *)
let two_cell_netlist () =
  let b = Builder.create ~name:"two" ~track_spacing:2 in
  Builder.add_macro b ~name:"a"
    ~shape:(Shape.rectangle ~w:20 ~h:20)
    ~pins:
      [ Builder.at ~name:"p" ~net:"n0" (20, 10);
        Builder.at ~name:"q" ~net:"n1" (10, 20) ];
  Builder.add_macro b ~name:"b"
    ~shape:(Shape.rectangle ~w:20 ~h:20)
    ~pins:
      [ Builder.at ~name:"p" ~net:"n0" (0, 10);
        Builder.at ~name:"q" ~net:"n1" (10, 0) ];
  Builder.build b

let mixed_netlist ?(seed = 19) () =
  Twmc_workload.Synth.generate ~seed
    { Twmc_workload.Synth.default_spec with
      Twmc_workload.Synth.n_cells = 8;
      n_nets = 20;
      n_pins = 70;
      frac_custom = 0.4 }

let core100 = Rect.make ~x0:(-200) ~y0:(-200) ~x1:200 ~y1:200

let make_placement ?(expander = Placement.No_expansion) ?(seed = 3) nl =
  Placement.create ~params:Params.default ~core:core100 ~expander
    ~rng:(Rng.create ~seed) nl

(* ----------------------------------------------------------- Placement *)

let test_placement_c1 () =
  let nl = two_cell_netlist () in
  let p = make_placement nl in
  Placement.set_cell p 0 ~x:0 ~y:0 ();
  Placement.set_cell p 1 ~x:100 ~y:0 ();
  (* Pins recentred: a.p at (10, 0) abs, b.p at (90, 0): n0 span = 80+0.
     a.q at (0, 10), b.q at (100, -10): n1 span = 100 + 20. *)
  checkf 1e-9 "c1" (80.0 +. 120.0) (Placement.c1 p);
  checkf 1e-9 "teil = c1 (unit weights)" (Placement.c1 p) (Placement.teil p);
  Placement.verify_consistency p

let test_placement_overlap () =
  let nl = two_cell_netlist () in
  let p = make_placement nl in
  Placement.set_cell p 0 ~x:0 ~y:0 ();
  Placement.set_cell p 1 ~x:10 ~y:0 ();
  (* 20x20 squares offset by 10: overlap = 10*20 = 200. *)
  checkf 1e-9 "pair overlap" 200.0 (Placement.c2_raw p);
  checkf 1e-9 "cell_overlap symmetric" (Placement.cell_overlap p 0)
    (Placement.cell_overlap p 1);
  (* Boundary overlap: push a cell halfway out of the core. *)
  Placement.set_cell p 1 ~x:200 ~y:0 ();
  checkf 1e-9 "boundary overlap" 200.0 (Placement.c2_raw p);
  Placement.verify_consistency p

let test_placement_orientation () =
  let nl = two_cell_netlist () in
  let p = make_placement nl in
  Placement.set_cell p 0 ~x:0 ~y:0 ~orient:Orient.R0 ();
  Placement.set_cell p 1 ~x:100 ~y:0 ();
  let px0, py0 = Placement.pin_position p ~cell:0 ~pin:0 in
  Placement.set_cell p 0 ~orient:Orient.R180 ();
  let px1, py1 = Placement.pin_position p ~cell:0 ~pin:0 in
  Alcotest.(check (pair int int)) "R180 mirrors pin" (-px0, -py0) (px1, py1);
  Placement.verify_consistency p

let test_placement_expander () =
  let nl = two_cell_netlist () in
  let exps = [| (1, 2, 3, 4); (0, 0, 0, 0) |] in
  let p = make_placement ~expander:(Placement.Static exps) nl in
  Placement.set_cell p 0 ~x:0 ~y:0 ();
  (match Placement.expanded_tiles p 0 with
  | [ r ] ->
      check "expanded width" (20 + 3) (Rect.width r);
      check "expanded height" (20 + 7) (Rect.height r)
  | _ -> Alcotest.fail "one tile expected");
  (match Placement.abs_tiles p 0 with
  | [ r ] -> check "raw width" 20 (Rect.width r)
  | _ -> Alcotest.fail "one tile expected");
  (* Swapping the expander recomputes. *)
  Placement.set_expander p Placement.No_expansion;
  (match Placement.expanded_tiles p 0 with
  | [ r ] -> check "no expansion" 20 (Rect.width r)
  | _ -> Alcotest.fail "one tile expected");
  Placement.verify_consistency p

let test_placement_sites_fastpath () =
  let nl = mixed_netlist () in
  let p = make_placement nl in
  (* Find a custom cell with uncommitted pins. *)
  let custom = ref (-1) in
  Array.iteri
    (fun ci (c : Cell.t) ->
      if !custom < 0 && c.Cell.kind = Cell.Custom && Cell.n_pins c > 0 then
        custom := ci)
    nl.Netlist.cells;
  if !custom >= 0 then begin
    let ci = !custom in
    let c = nl.Netlist.cells.(ci) in
    let v = Placement.cell_variant p ci in
    let sites =
      Array.init (Cell.n_pins c) (fun pi -> Placement.site_of_pin p ~cell:ci ~pin:pi)
    in
    (* Move the first uncommitted pin to another allowed site. *)
    let pin = ref (-1) in
    Array.iteri
      (fun pi (pn : Pin.t) -> if !pin < 0 && not (Pin.is_committed pn) then pin := pi)
      c.Cell.pins;
    let allowed = Cell.allowed_sites c ~variant:v !pin in
    (match List.find_opt (fun s -> s <> sites.(!pin)) allowed with
    | Some s ->
        let sites' = Array.copy sites in
        sites'.(!pin) <- s;
        Placement.set_cell p ci ~sites:sites' ();
        check "site moved" s (Placement.site_of_pin p ~cell:ci ~pin:!pin);
        Placement.verify_consistency p
    | None -> ())
  end

(* Randomized operation sequences must keep the incremental accumulators in
   sync with full recomputation. *)
let prop_incremental_consistency =
  QCheck.Test.make ~name:"incremental cost matches oracle after random ops"
    ~count:25 QCheck.small_int (fun seed ->
      let nl = mixed_netlist ~seed:(19 + (seed mod 7)) () in
      let exps =
        Array.make (Netlist.n_cells nl) (2, 2, 2, 2)
      in
      let p = make_placement ~expander:(Placement.Static exps) ~seed nl in
      let rng = Rng.create ~seed:(seed * 13) in
      for _ = 1 to 60 do
        let ci = Rng.int_incl rng 0 (Netlist.n_cells nl - 1) in
        match Rng.int_incl rng 0 3 with
        | 0 ->
            Placement.set_cell p ci
              ~x:(Rng.int_incl rng (-150) 150)
              ~y:(Rng.int_incl rng (-150) 150)
              ()
        | 1 ->
            Placement.set_cell p ci
              ~orient:(Orient.of_int (Rng.int_incl rng 0 7))
              ()
        | 2 ->
            let nv = Cell.n_variants nl.Netlist.cells.(ci) in
            Placement.set_cell p ci ~variant:(Rng.int_incl rng 0 (nv - 1)) ()
        | _ ->
            let c = nl.Netlist.cells.(ci) in
            let v = Placement.cell_variant p ci in
            let sites =
              Array.init (Cell.n_pins c) (fun pi ->
                  Placement.site_of_pin p ~cell:ci ~pin:pi)
            in
            Array.iteri
              (fun pi (pn : Pin.t) ->
                if not (Pin.is_committed pn) then
                  match Cell.allowed_sites c ~variant:v pi with
                  | [] -> ()
                  | allowed -> sites.(pi) <- Rng.pick_list rng allowed)
              c.Cell.pins;
            Placement.set_cell p ci ~sites ()
      done;
      Placement.verify_consistency p;
      true)

(* ------------------------------------------------------- Range limiter *)

let test_range_limiter () =
  let lim =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:2000.0 ~wy_inf:1000.0
      ~min_window:6
  in
  let wx, wy = Range_limiter.window lim ~temp:1e5 in
  checkf 1e-6 "full at T_inf x" 2000.0 wx;
  checkf 1e-6 "full at T_inf y" 1000.0 wy;
  let wx1, _ = Range_limiter.window lim ~temp:1e4 in
  checkf 1e-6 "one decade shrinks by rho" (2000.0 /. 4.0) wx1;
  checkb "monotone" true
    (fst (Range_limiter.window lim ~temp:1e3) < wx1);
  let wx_cold, wy_cold = Range_limiter.window lim ~temp:1e-9 in
  checkf 1e-6 "floor x" 6.0 wx_cold;
  checkf 1e-6 "floor y" 6.0 wy_cold;
  checkb "min span detection" true (Range_limiter.at_min_span lim ~temp:0.5);
  checkb "not at min when hot" false (Range_limiter.at_min_span lim ~temp:1e5)

let test_range_limiter_mu () =
  let lim =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:2000.0 ~wy_inf:2000.0
      ~min_window:6
  in
  let t' = Range_limiter.t_for_window_fraction lim ~mu:0.03 in
  let wx, _ = Range_limiter.window lim ~temp:t' in
  checkf 0.5 "window is mu fraction" (0.03 *. 2000.0) wx;
  (* Eqn 28 closed form for rho = 4. *)
  checkf 1e-3 "closed form" ((0.03 ** (log 10. /. log 4.)) *. 1e5) t'

let test_selectors () =
  let lim =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:600.0 ~wy_inf:600.0
      ~min_window:6
  in
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 500 do
    let dx, dy = Range_limiter.select_ds rng lim ~temp:1e5 in
    checkb "ds nonzero" true (dx <> 0 || dy <> 0);
    checkb "ds within window" true
      (abs dx <= 300 && abs dy <= 300);
    let dx, dy = Range_limiter.select_dr rng lim ~temp:1e5 in
    checkb "dr nonzero" true (dx <> 0 || dy <> 0);
    checkb "dr within window" true (abs dx <= 300 && abs dy <= 300)
  done;
  (* At the minimum window Ds still proposes unit steps. *)
  for _ = 1 to 100 do
    let dx, dy = Range_limiter.select_ds rng lim ~temp:0.1 in
    checkb "min window steps" true (abs dx <= 3 && abs dy <= 3);
    checkb "min window nonzero" true (dx <> 0 || dy <> 0)
  done

(* A limiter keeps the window of the last temperature it was asked for:
   a shared one must draw exactly the steps a fresh limiter draws, as the
   temperature changes, repeats and returns. *)
let test_selectors_memo () =
  let make () =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:900.0 ~wy_inf:500.0
      ~min_window:6
  in
  let shared = make () in
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 in
  List.iter
    (fun temp ->
      for _ = 1 to 20 do
        let sel = if Rng.bool_with_prob a 0.5 then Params.Ds else Params.Dr in
        ignore (Rng.bool_with_prob b 0.5);
        let got = Range_limiter.select sel a shared ~temp
        and want = Range_limiter.select sel b (make ()) ~temp in
        checkb (Printf.sprintf "same step at T=%g" temp) true (got = want)
      done)
    [ 1e5; 1e5; 314.0; 1e5; 0.1; 0.1; 2.5e3 ]

(* --------------------------------------------------------------- Moves *)

let test_moves_consistency () =
  let nl = mixed_netlist () in
  let exps = Array.make (Netlist.n_cells nl) (2, 2, 2, 2) in
  let p = make_placement ~expander:(Placement.Static exps) nl in
  let lim =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:800.0 ~wy_inf:800.0
      ~min_window:6
  in
  let stats = Moves.make_stats () in
  let ctx = Moves.make_ctx ~placement:p ~limiter:lim ~stats () in
  let rng = Rng.create ~seed:6 in
  List.iter
    (fun temp ->
      for _ = 1 to 500 do
        Moves.generate ctx rng ~temp
      done;
      Placement.verify_consistency p)
    [ 1e5; 1e3; 10.0; 0.01 ];
  check "attempts counted" 2000 stats.Moves.attempts;
  checkb "some moves accepted" true (stats.Moves.displacements > 0)

let test_moves_stage2_restrictions () =
  let nl = mixed_netlist () in
  let p = make_placement nl in
  let orients0 =
    Array.init (Netlist.n_cells nl) (fun i -> Placement.cell_orient p i)
  in
  let variants0 =
    Array.init (Netlist.n_cells nl) (fun i -> Placement.cell_variant p i)
  in
  let lim =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:800.0 ~wy_inf:800.0
      ~min_window:6
  in
  let stats = Moves.make_stats () in
  let ctx =
    Moves.make_ctx ~refine:true ~placement:p ~limiter:lim ~stats ()
  in
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 2000 do
    Moves.generate ctx rng ~temp:1e4
  done;
  Array.iteri
    (fun i o ->
      checkb "orientation frozen" true (Orient.equal o (Placement.cell_orient p i)))
    orients0;
  Array.iteri
    (fun i v -> check "variant frozen" v (Placement.cell_variant p i))
    variants0;
  check "no interchanges" 0 stats.Moves.interchanges;
  Placement.verify_consistency p

(* -------------------------------------------------------------- Stage 1 *)

let test_stage1_small () =
  let nl = mixed_netlist () in
  let params = { Params.default with Params.a_c = 60 } in
  let r = Stage1.run ~params ~rng:(Rng.create ~seed:8) nl in
  checkb "teil positive" true (r.Stage1.teil > 0.0);
  checkb "visited many temps" true (r.Stage1.temperatures_visited > 40);
  checkb "trace recorded" true (List.length r.Stage1.trace > 40);
  (* Cost decreases substantially from the hot phase. *)
  let first = List.hd r.Stage1.trace in
  let last = List.nth r.Stage1.trace (List.length r.Stage1.trace - 1) in
  checkb "cost decreased" true (last.Stage1.cost < first.Stage1.cost);
  checkb "hot acceptance near 1" true (first.Stage1.acceptance > 0.85);
  (* Residual overlap small relative to total cell area. *)
  let total_area = float_of_int (Netlist.total_cell_area nl) in
  checkb "residual overlap small" true
    (r.Stage1.residual_overlap /. total_area < 0.10);
  Placement.verify_consistency r.Stage1.placement

let test_stage1_deterministic () =
  let nl = mixed_netlist () in
  let params = { Params.default with Params.a_c = 10 } in
  let r1 = Stage1.run ~params ~rng:(Rng.create ~seed:9) nl in
  let r2 = Stage1.run ~params ~rng:(Rng.create ~seed:9) nl in
  checkf 1e-9 "same TEIL" r1.Stage1.teil r2.Stage1.teil;
  let r3 = Stage1.run ~params ~rng:(Rng.create ~seed:10) nl in
  checkb "different seed differs" true (r1.Stage1.teil <> r3.Stage1.teil)

let test_stage1_improves_over_random () =
  let nl = mixed_netlist () in
  let params = { Params.default with Params.a_c = 20 } in
  (* Average random-placement TEIL as the reference. *)
  let p = make_placement nl in
  let rng = Rng.create ~seed:11 in
  let random_teil = ref 0.0 in
  for _ = 1 to 10 do
    for ci = 0 to Netlist.n_cells nl - 1 do
      Placement.set_cell p ci
        ~x:(Rng.int_incl rng (-150) 150)
        ~y:(Rng.int_incl rng (-150) 150)
        ()
    done;
    random_teil := !random_teil +. Placement.teil p
  done;
  let random_teil = !random_teil /. 10.0 in
  let r = Stage1.run ~params ~rng:(Rng.create ~seed:12) nl in
  (* The core is tight (cell sizes dominate spans), so the achievable gain
     over random is bounded; 30% is already a strong signal. *)
  checkb "anneal beats random by 30%" true (r.Stage1.teil *. 1.3 < random_teil)

(* Net weighting: a net with large h/v weights must come out shorter than
   an identically-connected unit-weight net, because the annealer pays more
   for its span (Eqn 6). *)
let test_net_weights_bias () =
  let build weighted =
    let b = Builder.create ~name:"wnet" ~track_spacing:2 in
    for i = 0 to 5 do
      Builder.add_macro b
        ~name:(Printf.sprintf "c%d" i)
        ~shape:(Shape.rectangle ~w:40 ~h:40)
        ~pins:
          [ Builder.at ~name:"a" ~net:"hot" (0, 20);
            Builder.at ~name:"b" ~net:(Printf.sprintf "cold%d" (i mod 3)) (40, 20) ]
    done;
    if weighted then Builder.set_net_weight b ~net:"hot" ~h:8.0 ~v:8.0;
    Builder.build b
  in
  let run nl =
    let params = { Params.default with Params.a_c = 40 } in
    let r = Stage1.run ~params ~rng:(Rng.create ~seed:21) nl in
    let hot = Twmc_netlist.Netlist.net_index nl "hot" in
    (* Unweighted span of the hot net from final pin positions. *)
    let p = r.Stage1.placement in
    let minx = ref max_int and maxx = ref min_int in
    let miny = ref max_int and maxy = ref min_int in
    Array.iter
      (fun (pr : Net.pin_ref) ->
        let x, y = Placement.pin_position p ~cell:pr.Net.cell ~pin:pr.Net.pin in
        minx := min !minx x;
        maxx := max !maxx x;
        miny := min !miny y;
        maxy := max !maxy y)
      nl.Netlist.nets.(hot).Net.pins;
    !maxx - !minx + (!maxy - !miny)
  in
  let unweighted_span = run (build false) in
  let weighted_span = run (build true) in
  checkb "weighted net is shorter" true (weighted_span < unweighted_span)

(* Sequenced pin groups stay contiguous and ordered on one edge through the
   whole flow (Sec 2.4 case 4). *)
let test_group_sequence_preserved () =
  let nl = mixed_netlist () in
  let params = { Params.default with Params.a_c = 30 } in
  let r = Stage1.run ~params ~rng:(Rng.create ~seed:22) nl in
  let p = r.Stage1.placement in
  Array.iteri
    (fun ci (c : Cell.t) ->
      List.iter
        (fun (_, members) ->
          match members with
          | [] | [ _ ] -> ()
          | first :: _ ->
              let v = Placement.cell_variant p ci in
              let sites = (Cell.variant c v).Cell.sites in
              let s0 = Placement.site_of_pin p ~cell:ci ~pin:first in
              let e0 = sites.(s0).Twmc_netlist.Pin_site.edge in
              List.iteri
                (fun k pin ->
                  let sk = Placement.site_of_pin p ~cell:ci ~pin in
                  check "same edge" e0 sites.(sk).Twmc_netlist.Pin_site.edge;
                  (* Consecutive (with wraparound) site indices. *)
                  let ranges = Sites.edge_ranges (Cell.variant c v) in
                  let start, len = ranges.(e0) in
                  check "ordered with wrap"
                    ((s0 - start + k) mod len)
                    ((sk - start) mod len))
                members)
        (Sites.group_members c))
    nl.Netlist.cells

(* The Fig 2 scenario: a tall slot between two blocks only fits the moved
   cell with its aspect ratio inverted; the plain displacement is rejected
   at T=0 (overlap) and the inversion retry is accepted. *)
let test_fig2_aspect_rescue () =
  let b = Builder.create ~name:"fig2" ~track_spacing:2 in
  (* Two wide walls with a 30-wide, 100-tall gap between them. *)
  Builder.add_macro b ~name:"wall_l"
    ~shape:(Shape.rectangle ~w:100 ~h:100)
    ~pins:[ Builder.at ~name:"p" ~net:"n" (100, 50) ];
  Builder.add_macro b ~name:"wall_r"
    ~shape:(Shape.rectangle ~w:100 ~h:100)
    ~pins:[ Builder.at ~name:"p" ~net:"n" (0, 50) ];
  (* The mover: 80 wide x 20 tall; upright it cannot fit the 30-wide gap,
     rotated (20x80) it can. *)
  Builder.add_macro b ~name:"mover"
    ~shape:(Shape.rectangle ~w:80 ~h:20)
    ~pins:[ Builder.at ~name:"q" ~net:"n" (40, 20) ];
  let nl = Builder.build b in
  let core = Rect.make ~x0:(-250) ~y0:(-250) ~x1:250 ~y1:250 in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:Placement.No_expansion ~rng:(Rng.create ~seed:20) nl
  in
  (* Walls flanking a gap centred at x=0; mover far away below. *)
  Placement.set_cell p 0 ~x:(-65) ~y:0 ~orient:Orient.R0 ();
  Placement.set_cell p 1 ~x:65 ~y:0 ~orient:Orient.R0 ();
  Placement.set_cell p 2 ~x:0 ~y:(-200) ~orient:Orient.R0 ();
  Placement.recompute_all p;
  checkf 1e-9 "starts overlap-free" 0.0 (Placement.c2_raw p);
  (* Forbid luck: at T=0 the move into the slot must fail upright (overlap
     with both walls raises the cost) and succeed inverted (no overlap and
     much shorter nets). *)
  let lim =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:1000.0 ~wy_inf:1000.0
      ~min_window:6
  in
  let stats = Moves.make_stats () in
  let _ctx = Moves.make_ctx ~placement:p ~limiter:lim ~stats () in
  (* Drive the ladder directly through the evaluations
     Moves.attempt_displacement/_inverted run at T=0. *)
  let displace orient =
    Placement.delta_cell p 2 ~x:0 ~y:0 ~orient
      ~variant:(Placement.cell_variant p 2)
  in
  let upright_delta = displace (Placement.cell_orient p 2) in
  checkb "upright move rejected (overlaps walls)" true (upright_delta > 0.0);
  checkf 1e-9 "rejected evaluation leaves the placement" 0.0
    (Placement.c2_raw p);
  let inverted_delta =
    displace (Orient.aspect_inversion_of (Placement.cell_orient p 2))
  in
  checkb "inverted move accepted" true (inverted_delta < 0.0);
  Placement.commit p;
  checkf 1e-9 "no overlap after rescue" 0.0 (Placement.c2_raw p);
  Placement.verify_consistency p

(* --------------------------------------------------------- Anneal_loop *)

(* Every cell of the mixed netlist piled at the origin under a fixed
   two-unit expansion: a heavily overlapped start.  The inner loop is
   [a_c * 8] moves long. *)
let piled_placement ~a_c =
  let nl = mixed_netlist () in
  let exps = Array.make (Netlist.n_cells nl) (2, 2, 2, 2) in
  let p =
    Placement.create ~params:{ Params.default with Params.a_c } ~core:core100
      ~expander:(Placement.Static exps) ~rng:(Rng.create ~seed:3) nl
  in
  for ci = 0 to Netlist.n_cells nl - 1 do
    Placement.set_cell p ci ~x:0 ~y:0 ()
  done;
  p

(* A stage-1 style anneal on a geometric schedule.  The window is at its
   minimum span below T = 29, so a [Min_window] run from T = 5 stops after
   its first temperature. *)
let drive ?should_stop ~stop ~t_start p =
  let limiter =
    Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:800.0 ~wy_inf:800.0
      ~min_window:6
  in
  let stats = Moves.make_stats () in
  let r =
    Anneal_loop.run (Anneal_loop.Stage1 None) ?should_stop
      ~rng:(Rng.create ~seed:13)
      ~schedule:(Twmc_sa.Schedule.geometric ~alpha:0.9)
      ~t_start ~t_floor:1e-9 ~stop
      (Moves.make_ctx ~placement:p ~limiter ~stats ())
  in
  (r, stats)

let test_anneal_freeze () =
  (* An empty inner loop never changes the cost, so [Frozen 3] fires after
     the fourth temperature.  The quench still runs on the overlap left,
     finding no improvement: 1 + 20 loops. *)
  let p = piled_placement ~a_c:0 in
  let r, _ = drive ~stop:(Anneal_loop.Frozen 3) ~t_start:1e4 p in
  check "frozen after 3 unchanged loops" 4 (List.length r.Anneal_loop.trace);
  check "quench tail ran to its patience" (4 + 21) r.Anneal_loop.temperatures;
  checkb "not interrupted" false r.Anneal_loop.interrupted

let test_anneal_client_stop () =
  (* The third poll, after move 384 of the first 400-move inner loop, stops
     the run: one temperature and no quench, though cells still overlap. *)
  let p = piled_placement ~a_c:50 in
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    !polls >= 3
  in
  let r, stats = drive ~should_stop ~stop:Anneal_loop.Min_window ~t_start:1e4 p in
  checkb "interrupted" true r.Anneal_loop.interrupted;
  check "stopped mid-loop" 384 stats.Moves.attempts;
  check "one temperature" 1 (List.length r.Anneal_loop.trace);
  check "no quench" 1 r.Anneal_loop.temperatures;
  checkb "overlap left" true (Placement.c2_raw p > 0.0);
  Placement.verify_consistency p

let test_quench_removes_overlap () =
  let p = piled_placement ~a_c:50 in
  let before = Placement.c2_raw p in
  checkb "starts overlapped" true (before > 0.0);
  let r, _ = drive ~stop:Anneal_loop.Min_window ~t_start:5.0 p in
  check "one annealing temperature" 1 (List.length r.Anneal_loop.trace);
  checkb "quench loops ran" true (r.Anneal_loop.temperatures > 1);
  checkf 0.0 "overlap cleared" 0.0 (Placement.c2_raw p);
  Placement.verify_consistency p

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "place"
    [ ( "placement",
        [ Alcotest.test_case "c1 spans" `Quick test_placement_c1;
          Alcotest.test_case "overlap" `Quick test_placement_overlap;
          Alcotest.test_case "orientation" `Quick test_placement_orientation;
          Alcotest.test_case "expander" `Quick test_placement_expander;
          Alcotest.test_case "site fast path" `Quick test_placement_sites_fastpath ] );
      ("placement-props", qt [ prop_incremental_consistency ]);
      ( "range limiter",
        [ Alcotest.test_case "window" `Quick test_range_limiter;
          Alcotest.test_case "mu start" `Quick test_range_limiter_mu;
          Alcotest.test_case "selectors" `Quick test_selectors;
          Alcotest.test_case "selectors keep one window per temperature"
            `Quick test_selectors_memo ] );
      ( "moves",
        [ Alcotest.test_case "consistency" `Quick test_moves_consistency;
          Alcotest.test_case "stage2 restrictions" `Quick test_moves_stage2_restrictions ] );
      ( "behaviors",
        [ Alcotest.test_case "net weights bias" `Quick test_net_weights_bias;
          Alcotest.test_case "group sequences" `Quick test_group_sequence_preserved ] );
      ( "fig2",
        [ Alcotest.test_case "aspect-inversion rescue" `Quick
            test_fig2_aspect_rescue ] );
      ( "stage1",
        [ Alcotest.test_case "small run" `Quick test_stage1_small;
          Alcotest.test_case "deterministic" `Quick test_stage1_deterministic;
          Alcotest.test_case "beats random" `Quick test_stage1_improves_over_random ] );
      ( "anneal",
        [ Alcotest.test_case "freeze stop" `Quick test_anneal_freeze;
          Alcotest.test_case "client stop" `Quick test_anneal_client_stop ] );
      ("quench", [ Alcotest.test_case "removes overlap" `Quick test_quench_removes_overlap ]) ]
