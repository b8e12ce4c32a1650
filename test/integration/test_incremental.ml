(* Property-based differential test of the incremental cost accumulators.

   The placement caches every term of the paper's Eqns 6-11 cost function
   (C1/C2/C3/TEIL) and updates them incrementally on each move; the oracle
   is a from-scratch [Placement.recompute_all].  Random netlists from the
   synthetic workload generator are driven through batches of random moves
   — hot temperatures so most are accepted and committed, cold so most
   are rejected and must leave the placement untouched — and after
   every batch each cached term must agree with the recomputed truth to
   within 1e-6 relative ([Placement.drift_report] applies exactly that
   tolerance and returns the offenders). *)

open Twmc_place
module Rect = Twmc_geometry.Rect
module Rng = Twmc_sa.Rng
module Synth = Twmc_workload.Synth

let checkb = Alcotest.(check bool)

let random_spec rng =
  let n_cells = Rng.int_incl rng 5 14 in
  let n_nets = Rng.int_incl rng (n_cells * 2) (n_cells * 4) in
  let n_pins = Rng.int_incl rng (2 * n_nets) (3 * n_nets) in
  { Synth.default_spec with
    Synth.name = "diff";
    n_cells;
    n_nets;
    n_pins;
    frac_custom = Rng.float rng 0.7;
    frac_rectilinear = Rng.float rng 0.5 }

let centered_core ~w ~h =
  Rect.make ~x0:(-(w / 2)) ~y0:(-(h / 2)) ~x1:(w - (w / 2)) ~y1:(h - (h / 2))

(* [Placement.drift_report]'s tolerance. *)
let close a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let assert_no_drift ~what p =
  match Placement.drift_report p with
  | [] -> ()
  | drifts ->
      Alcotest.failf "%s: incremental/recompute drift: %s" what
        (String.concat "; "
           (List.map
              (fun (term, cached, truth) ->
                Printf.sprintf "%s cached=%.9g true=%.9g" term cached truth)
              drifts))

(* One differential run: ~500 moves in batches of 50, alternating hot and
   cold temperatures, with a mid-run switch to the static expander (the
   stage-2 configuration: displacements and pin moves only). *)
let differential_run seed =
  let rng = Rng.create ~seed in
  let spec = random_spec rng in
  let nl = Synth.generate ~seed:(Rng.int_incl rng 0 9999) spec in
  let sizing = Twmc_estimator.Core_area.determine ~fill_target:0.6 nl in
  let core =
    centered_core ~w:sizing.Twmc_estimator.Core_area.core_w
      ~h:sizing.Twmc_estimator.Core_area.core_h
  in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  Placement.set_p2 p 0.5;
  let limiter = Range_limiter.of_core ~rho:4.0 ~t_inf:1e4 ~core in
  let dyn_ctx =
    Moves.make_ctx ~placement:p ~limiter ~stats:(Moves.make_stats ()) ()
  in
  let static_ctx =
    (* Stage-2 style context, built lazily after the expander switch. *)
    lazy
      (Moves.make_ctx ~refine:true ~placement:p ~limiter
         ~stats:(Moves.make_stats ()) ())
  in
  let batches = 10 and batch = 50 in
  for b = 1 to batches do
    (* Hot batches accept nearly everything; cold ones reject nearly
       everything, whose evaluations must leave the placement as it was. *)
    let temp = if b mod 2 = 1 then 1e4 else 1e-3 in
    let ctx =
      if b <= 6 then dyn_ctx
      else begin
        if b = 7 then begin
          let n = Twmc_netlist.Netlist.n_cells nl in
          Placement.set_expander p
            (Placement.Static (Array.make n (3, 3, 3, 3)))
        end;
        Lazy.force static_ctx
      end
    in
    for _ = 1 to batch do
      Moves.generate ctx rng ~temp
    done;
    assert_no_drift ~what:(Printf.sprintf "seed %d batch %d" seed b) p
  done

let test_differential_small_seeds () =
  List.iter differential_run [ 1; 2; 3; 4; 5 ]

let test_differential_more_seeds () =
  List.iter differential_run [ 101; 202; 303 ]

(* ------------------------------------------ constrained differentials *)

module Mutate = Twmc_workload.Mutate

(* Layer every constraint type onto a netlist (deterministic in [seed]). *)
let constrain ~seed nl =
  Mutate.apply_all
    ~rng:(Rng.create ~seed:(seed lxor 0x5a5a))
    [ Mutate.Add_blockages 2; Mutate.Add_keepouts 1; Mutate.Conflicting_fixed 1;
      Mutate.Zero_slack_regions 1; Mutate.Pin_boundary 1; Mutate.Align_chain 2;
      Mutate.Abut_pairs 1; Mutate.Tight_density 1 ]
    nl

(* Constraint penalties are exact integers, so cached-vs-fresh agreement is
   bit-exact, not within-tolerance. *)
let assert_constraint_accounting ~what p =
  let sum = ref 0.0 in
  for k = 0 to Placement.n_constraints p - 1 do
    let cached = Placement.constraint_penalty p k in
    let fresh = Placement.eval_constraint p k in
    sum := !sum +. fresh;
    if Int64.bits_of_float cached <> Int64.bits_of_float fresh then
      Alcotest.failf "%s: constraint %d cached=%.17g fresh=%.17g" what k
        cached fresh
  done;
  if Int64.bits_of_float (Placement.c4 p) <> Int64.bits_of_float !sum then
    Alcotest.failf "%s: C4 accumulator %.17g <> fresh sum %.17g" what
      (Placement.c4 p) !sum

(* The ~500-move differential property on constraint-rich netlists: after
   every batch the cached per-constraint penalties and the C4 accumulator
   must match a from-scratch evaluation bit-for-bit, on top of the usual
   drift gate (which now carries a C4 row). *)
let differential_constrained_run seed =
  let rng = Rng.create ~seed in
  let spec = random_spec rng in
  let nl = constrain ~seed (Synth.generate ~seed:(Rng.int_incl rng 0 9999) spec) in
  checkb "netlist is constrained" true
    (Twmc_netlist.Netlist.n_constraints nl > 0);
  let sizing = Twmc_estimator.Core_area.determine ~fill_target:0.6 nl in
  let core =
    centered_core ~w:sizing.Twmc_estimator.Core_area.core_w
      ~h:sizing.Twmc_estimator.Core_area.core_h
  in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  Placement.set_p2 p 0.5;
  let limiter = Range_limiter.of_core ~rho:4.0 ~t_inf:1e4 ~core in
  let dyn_ctx =
    Moves.make_ctx ~placement:p ~limiter ~stats:(Moves.make_stats ()) ()
  in
  let static_ctx =
    lazy
      (Moves.make_ctx ~refine:true ~placement:p ~limiter
         ~stats:(Moves.make_stats ()) ())
  in
  let batches = 10 and batch = 50 in
  for b = 1 to batches do
    let temp = if b mod 2 = 1 then 1e4 else 1e-3 in
    let ctx =
      if b <= 6 then dyn_ctx
      else begin
        if b = 7 then begin
          let n = Twmc_netlist.Netlist.n_cells nl in
          Placement.set_expander p
            (Placement.Static (Array.make n (3, 3, 3, 3)))
        end;
        Lazy.force static_ctx
      end
    in
    for _ = 1 to batch do
      Moves.generate ctx rng ~temp
    done;
    let what = Printf.sprintf "constrained seed %d batch %d" seed b in
    assert_constraint_accounting ~what p;
    assert_no_drift ~what p
  done

let test_differential_constrained () =
  List.iter differential_constrained_run [ 7; 8; 9 ]

(* Direct term-by-term check at a finer grain: after every single accepted
   or rejected move on one circuit, the four cached terms match the oracle
   within 1e-6 relative. *)
let test_per_move_terms () =
  let rng = Rng.create ~seed:77 in
  let nl =
    Synth.generate ~seed:8
      { Synth.default_spec with
        Synth.n_cells = 6;
        n_nets = 15;
        n_pins = 40;
        frac_custom = 0.5 }
  in
  let core = centered_core ~w:260 ~h:260 in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:Placement.No_expansion ~rng nl
  in
  Placement.set_p2 p 1.0;
  let limiter = Range_limiter.of_core ~rho:4.0 ~t_inf:1e3 ~core in
  let ctx =
    Moves.make_ctx ~placement:p ~limiter ~stats:(Moves.make_stats ()) ()
  in
  for i = 1 to 120 do
    let temp = if i mod 3 = 0 then 1e-3 else 1e3 in
    Moves.generate ctx rng ~temp;
    let c1 = Placement.c1 p
    and c2 = Placement.c2_raw p
    and c3 = Placement.c3 p
    and teil = Placement.teil p in
    Placement.recompute_all p;
    checkb (Printf.sprintf "move %d C1" i) true (close c1 (Placement.c1 p));
    checkb (Printf.sprintf "move %d C2" i) true (close c2 (Placement.c2_raw p));
    checkb (Printf.sprintf "move %d C3" i) true (close c3 (Placement.c3 p));
    checkb (Printf.sprintf "move %d TEIL" i) true (close teil (Placement.teil p))
  done

(* The pre-index overlap of cell [ci]: its expanded tiles' area outside
   the core plus a full scan of every other cell — the O(n) reference the
   indexed query is checked against. *)
let cell_overlap_scan p ci =
  let core = Placement.core p in
  let bbox = function
    | [] -> Rect.empty
    | r :: rest -> List.fold_left Rect.hull r rest
  in
  let tiles = Placement.expanded_tiles p ci in
  let total = ref 0 in
  List.iter
    (fun r -> total := !total + (Rect.area r - Rect.inter_area r core))
    tiles;
  for cj = 0 to Twmc_netlist.Netlist.n_cells (Placement.netlist p) - 1 do
    let other = Placement.expanded_tiles p cj in
    if cj <> ci && Rect.overlaps (bbox tiles) (bbox other) then
      List.iter
        (fun ra ->
          List.iter (fun rb -> total := !total + Rect.inter_area ra rb) other)
        tiles
  done;
  float_of_int !total

(* The placement's overlap enumeration vs the full scan.  Both sum exact
   integer areas, so agreement must be exact equality, not
   within-tolerance; and the packed bboxes must match the cells, and a
   grid, where there is one, must answer queries identically to a
   from-scratch rebuild ([Placement.verify_index]). *)
let index_vs_scan_run spec_of seed =
  let rng = Rng.create ~seed in
  let spec = spec_of rng in
  let nl = Synth.generate ~seed:(Rng.int_incl rng 0 9999) spec in
  let sizing = Twmc_estimator.Core_area.determine ~fill_target:0.6 nl in
  let core =
    centered_core ~w:sizing.Twmc_estimator.Core_area.core_w
      ~h:sizing.Twmc_estimator.Core_area.core_h
  in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  Placement.set_p2 p 0.5;
  let limiter = Range_limiter.of_core ~rho:4.0 ~t_inf:1e4 ~core in
  let ctx =
    Moves.make_ctx ~placement:p ~limiter ~stats:(Moves.make_stats ()) ()
  in
  let n = Twmc_netlist.Netlist.n_cells nl in
  let check_point what =
    for ci = 0 to n - 1 do
      let a = Placement.cell_overlap p ci
      and b = cell_overlap_scan p ci in
      if a <> b then
        Alcotest.failf "%s: cell %d overlap indexed=%.17g scan=%.17g" what ci
          a b
    done;
    Placement.verify_index p
  in
  check_point (Printf.sprintf "seed %d initial" seed);
  for i = 1 to 200 do
    let temp = if i mod 2 = 0 then 1e4 else 1e-3 in
    Moves.generate ctx rng ~temp;
    if i mod 25 = 0 then check_point (Printf.sprintf "seed %d move %d" seed i)
  done;
  (* A core resize and an expander swap both force an index rebuild. *)
  Placement.set_core p
    (Rect.make ~x0:(core.Rect.x0 - 7) ~y0:(core.Rect.y0 - 7)
       ~x1:(core.Rect.x1 + 11) ~y1:(core.Rect.y1 + 11));
  check_point (Printf.sprintf "seed %d after set_core" seed);
  Placement.set_expander p (Placement.Static (Array.make n (2, 2, 2, 2)));
  check_point (Printf.sprintf "seed %d after set_expander" seed);
  for i = 1 to 100 do
    Moves.generate ctx rng ~temp:(if i mod 2 = 0 then 1e4 else 1e-3)
  done;
  check_point (Printf.sprintf "seed %d final" seed);
  assert_no_drift ~what:(Printf.sprintf "seed %d final" seed) p

(* The random specs stay below [Placement.grid_min_cells], where the
   candidates come from the packed bboxes; one circuit above it takes them
   from the grid. *)
let test_index_vs_scan () =
  List.iter (index_vs_scan_run random_spec) [ 11; 22; 33 ];
  let n_cells = Placement.grid_min_cells + 12 in
  index_vs_scan_run
    (fun _ ->
      { Synth.default_spec with
        Synth.name = "diff-grid";
        n_cells;
        n_nets = 2 * n_cells;
        n_pins = 5 * n_cells;
        frac_custom = 0.4;
        frac_rectilinear = 0.4 })
    44

(* Placement [b] against the placement under test, [a]: every accumulator
   but C1 and every constraint penalty to the bit, C1 to the bit when
   [c1_exact] and within [drift_report]'s bound otherwise, and every
   cell's state, tiles and pins. *)
let assert_same_placement ~what ~against ?(c1_exact = true) a b =
  let module Cell = Twmc_netlist.Cell in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (term, f) ->
      if bits (f a) <> bits (f b) then
        Alcotest.failf "%s: %s committed %.17g, %s %.17g" what term (f a)
          against (f b))
    [ ("C2", Placement.c2_raw); ("C3", Placement.c3); ("C4", Placement.c4);
      ("TEIL", Placement.teil) ];
  let c1a = Placement.c1 a and c1b = Placement.c1 b in
  if
    if c1_exact then bits c1a <> bits c1b else not (close c1a c1b)
  then
    Alcotest.failf "%s: C1 committed %.17g, %s %.17g" what c1a against c1b;
  let nl = Placement.netlist a in
  Array.iteri
    (fun ci (c : Cell.t) ->
      let same name eq f =
        if not (eq (f a ci) (f b ci)) then
          Alcotest.failf "%s: cell %d %s differs" what ci name
      in
      same "position" ( = ) Placement.cell_pos;
      same "orientation" Twmc_geometry.Orient.equal Placement.cell_orient;
      same "variant" Int.equal Placement.cell_variant;
      same "tiles" (List.equal Rect.equal) Placement.abs_tiles;
      same "expanded tiles" (List.equal Rect.equal) Placement.expanded_tiles;
      for pin = 0 to Cell.n_pins c - 1 do
        same "site" Int.equal (fun p cell -> Placement.site_of_pin p ~cell ~pin);
        same "pin position" ( = ) (fun p cell ->
            Placement.pin_position p ~cell ~pin)
      done)
    nl.Twmc_netlist.Netlist.cells;
  for k = 0 to Placement.n_constraints a - 1 do
    let pa = Placement.constraint_penalty a k
    and pb = Placement.constraint_penalty b k in
    if bits pa <> bits pb then
      Alcotest.failf "%s: constraint %d committed %.17g, %s %.17g" what k pa
        against pb
  done

(* One proposal of the generate function, on the resolved values its
   entry point takes. *)
type proposal =
  | Cell of {
      ci : int;
      x : int;
      y : int;
      orient : Twmc_geometry.Orient.t;
      variant : int;
    }
  | Interchange of {
      i : int;
      j : int;
      orient_i : Twmc_geometry.Orient.t;
      orient_j : Twmc_geometry.Orient.t;
    }
  | Sites of { ci : int; sites : int array }

(* A move of cell [ci] of [p], each field not given at its committed
   value. *)
let cell_move p ?x ?y ?orient ?variant ci =
  let get v f = match v with Some v -> v | None -> f p ci in
  Cell
    { ci;
      x = get x Placement.cell_x;
      y = get y Placement.cell_y;
      orient = get orient Placement.cell_orient;
      variant = get variant Placement.cell_variant }

(* An interchange of cells [i] and [j] of [p], each keeping its committed
   orientation unless given another. *)
let interchange p ?orient_i ?orient_j i j =
  let get v ci =
    match v with Some o -> o | None -> Placement.cell_orient p ci
  in
  Interchange { i; j; orient_i = get orient_i i; orient_j = get orient_j j }

(* The proposal through its entry point. *)
let evaluate p = function
  | Cell { ci; x; y; orient; variant } ->
      Placement.delta_cell p ci ~x ~y ~orient ~variant
  | Interchange { i; j; orient_i; orient_j } ->
      Placement.delta_interchange p i j ~orient_i ~orient_j
  | Sites { ci; sites } -> Placement.delta_sites p ci sites

(* The proposal through [Placement.set_cell], one cell at a time. *)
let apply p = function
  | Cell { ci; x; y; orient; variant } ->
      Placement.set_cell p ci ~x ~y ~orient ~variant ()
  | Interchange { i; j; orient_i; orient_j } ->
      let xi, yi = Placement.cell_pos p i and xj, yj = Placement.cell_pos p j in
      Placement.set_cell p i ~x:xj ~y:yj ~orient:orient_i ();
      Placement.set_cell p j ~x:xi ~y:yi ~orient:orient_j ()
  | Sites { ci; sites } -> Placement.set_cell p ci ~sites ()

(* A placement rebuilt from [p]'s committed cell fields alone: a fresh one
   over the same netlist, core, expander and p2, each cell set to [p]'s
   position, orientation, variant and sites, then [recompute_all], which
   derives every cache and accumulator from those fields. *)
let rebuild p =
  let module Cell = Twmc_netlist.Cell in
  let nl = Placement.netlist p in
  let q =
    Placement.create ~params:(Placement.params p) ~core:(Placement.core p)
      ~expander:(Placement.expander p) ~rng:(Rng.create ~seed:0) nl
  in
  Placement.set_p2 q (Placement.p2 p);
  Array.iteri
    (fun ci (c : Cell.t) ->
      let x, y = Placement.cell_pos p ci in
      Placement.set_cell q ci ~x ~y ~orient:(Placement.cell_orient p ci)
        ~variant:(Placement.cell_variant p ci)
        ~sites:
          (Array.init (Cell.n_pins c) (fun pin ->
               Placement.site_of_pin p ~cell:ci ~pin))
        ())
    nl.Twmc_netlist.Netlist.cells;
  Placement.recompute_all q;
  q

(* One proposal checked three ways.  [p] evaluates it through its entry
   point and installs it with [commit]; its same-seed [twin] applies it
   through [set_cell] one cell at a time, so an interchange is evaluated
   as two independent moves.  The delta must equal the twin's cost
   change, and the two placements each other, bit for bit; and [p] must
   match its [rebuild], the independent reference.  Nothing recomputes
   [p] itself, so no stale cache is repaired before it is compared. *)
let check_twin_move ~what p twin prop =
  let d = evaluate p prop in
  Placement.commit p;
  let t0 = Placement.total_cost twin in
  apply twin prop;
  let measured = Placement.total_cost twin -. t0 in
  if Int64.bits_of_float d <> Int64.bits_of_float measured then
    Alcotest.failf "%s: entry point %.17g <> set_cell one cell at a time %.17g"
      what d measured;
  assert_same_placement ~what ~against:"set_cell" p twin;
  assert_same_placement ~what ~against:"rebuilt" ~c1_exact:false p (rebuild p)

(* Cell [ci]'s site assignment with every uncommitted pin that may take
   it moved onto one site, the least-capacity allowed site of its first
   uncommitted pin: with two or more such pins the site is crowded past
   its capacity, so the move changes the cell's C3. *)
let crowded_sites p ci =
  let module Cell = Twmc_netlist.Cell in
  let c = (Placement.netlist p).Twmc_netlist.Netlist.cells.(ci) in
  let variant = Placement.cell_variant p ci in
  let cap s = (Cell.variant c variant).Cell.sites.(s).Twmc_netlist.Pin_site.capacity in
  let allowed pin = Placement.allowed_sites p ~cell:ci ~variant ~pin in
  let sites =
    Array.init (Cell.n_pins c) (fun pin -> Placement.site_of_pin p ~cell:ci ~pin)
  in
  match
    List.find_opt
      (fun pin -> Array.length (allowed pin) > 0)
      (List.init (Cell.n_pins c) Fun.id)
  with
  | None -> None
  | Some first ->
      let a = allowed first in
      let s0 =
        Array.fold_left (fun best s -> if cap s < cap best then s else best)
          a.(0) a
      in
      Array.iteri
        (fun pin _ -> if Array.mem s0 (allowed pin) then sites.(pin) <- s0)
        sites;
      Some sites

(* A site move that crowds cell [ci] ([crowded_sites]) through
   [check_move]; counts it in [changes] when it changed C3.  The next
   site move of the same cell then takes its C3 out again: what a
   [commit] that drops its C3 copy gets wrong. *)
let check_crowd ~check_move ~changes p ci =
  match crowded_sites p ci with
  | None -> ()
  | Some sites ->
      let c3 = Placement.c3 p in
      check_move "crowd one site" (Sites { ci; sites });
      if Placement.c3 p <> c3 then incr changes

(* [check_twin_move] over every move kind — displace, displace+orient,
   in-place orient, interchange, variant and pin-site moves — under the
   dynamic and then the static expander. *)
let test_delta_vs_apply () =
  let rng = Rng.create ~seed:909 in
  let nl =
    Synth.generate ~seed:17
      { Synth.default_spec with
        Synth.n_cells = 10;
        n_nets = 30;
        n_pins = 80;
        frac_custom = 0.6;
        frac_rectilinear = 0.4 }
  in
  let core = centered_core ~w:300 ~h:300 in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  (* Built from the same seed: the same initial state as [p]. *)
  let twin =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng:(Rng.create ~seed:909) nl
  in
  Placement.set_p2 p 0.7;
  Placement.set_p2 twin 0.7;
  let n = Twmc_netlist.Netlist.n_cells nl in
  let cm ?x ?y ?orient ?variant ci = cell_move p ?x ?y ?orient ?variant ci in
  let checked = ref 0 and c3_changes = ref 0 in
  let check_move what prop =
    check_twin_move ~what p twin prop;
    incr checked
  in
  let rand_pos () =
    ( Rng.int_incl rng core.Rect.x0 core.Rect.x1,
      Rng.int_incl rng core.Rect.y0 core.Rect.y1 )
  in
  let module Cell = Twmc_netlist.Cell in
  let module Pin = Twmc_netlist.Pin in
  let module Orient = Twmc_geometry.Orient in
  let random_sites ci =
    (* Current assignment with one random uncommitted pin reassigned. *)
    let c = nl.Twmc_netlist.Netlist.cells.(ci) in
    let variant = Placement.cell_variant p ci in
    let sites =
      Array.init (Cell.n_pins c) (fun pin ->
          Placement.site_of_pin p ~cell:ci ~pin)
    in
    let uncommitted = ref [] in
    Array.iteri
      (fun pi pin -> if not (Pin.is_committed pin) then uncommitted := pi :: !uncommitted)
      c.Cell.pins;
    match !uncommitted with
    | [] -> None
    | l -> (
        let pin = List.nth l (Rng.int_incl rng 0 (List.length l - 1)) in
        match Cell.allowed_sites c ~variant pin with
        | [] -> None
        | allowed ->
            sites.(pin) <- Rng.pick_list rng allowed;
            Some sites)
  in
  for i = 1 to 40 do
    let ci = Rng.int_incl rng 0 (n - 1) in
    let x, y = rand_pos () in
    check_move "displace" (cm ~x ~y ci);
    let o = Rng.pick_list rng Orient.all in
    check_move "orient" (cm ~orient:o ci);
    let x, y = rand_pos () in
    let o = Rng.pick_list rng Orient.all in
    check_move "displace+orient" (cm ~x ~y ~orient:o ci);
    let cj = Rng.int_incl rng 0 (n - 1) in
    if cj <> ci then check_move "interchange" (interchange p ci cj);
    let c = nl.Twmc_netlist.Netlist.cells.(ci) in
    if Cell.n_variants c > 1 then begin
      let v' = Rng.int_incl rng 0 (Cell.n_variants c - 1) in
      check_move "variant" (cm ~variant:v' ci)
    end;
    check_crowd ~check_move ~changes:c3_changes p ci;
    (* Two pin-site moves: the second takes out the C3 the first put in. *)
    (match random_sites ci with
    | Some sites -> check_move "sites" (Sites { ci; sites })
    | None -> ());
    (match random_sites ci with
    | Some sites -> check_move "sites again" (Sites { ci; sites })
    | None -> ());
    (* Swap expanders mid-run: the delta path must track both models. *)
    if i = 20 then begin
      Placement.set_expander p (Placement.Static (Array.make n (3, 3, 3, 3)));
      Placement.set_expander twin
        (Placement.Static (Array.make n (3, 3, 3, 3)))
    end
  done;
  checkb "coverage: enough move kinds exercised" true (!checked > 150);
  checkb "coverage: site moves changed C3" true (!c3_changes >= 5);
  Placement.verify_index p;
  Placement.verify_index twin;
  Placement.verify_consistency twin;
  assert_no_drift ~what:"delta-vs-apply end" p

(* [check_twin_move] on a constrained netlist, for every move kind, with
   displacement targets biased onto and just across the blockage edges —
   the worst case for the per-constraint incremental re-evaluation. *)
let test_delta_vs_apply_constrained () =
  let rng = Rng.create ~seed:911 in
  let nl =
    constrain ~seed:911
      (Synth.generate ~seed:19
         { Synth.default_spec with
           Synth.n_cells = 9;
           n_nets = 24;
           n_pins = 64;
           frac_custom = 0.5;
           frac_rectilinear = 0.4 })
  in
  let module Constr = Twmc_netlist.Constr in
  let blockage =
    Array.to_list nl.Twmc_netlist.Netlist.constraints
    |> List.find_map (function Constr.Blockage r -> Some r | _ -> None)
  in
  let blockage =
    match blockage with
    | Some r -> r
    | None -> Alcotest.fail "constrained netlist carries no blockage"
  in
  let core = centered_core ~w:300 ~h:300 in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  (* Built from the same seed: the same initial state as [p]. *)
  let twin =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng:(Rng.create ~seed:911) nl
  in
  Placement.set_p2 p 0.7;
  Placement.set_p2 twin 0.7;
  let n = Twmc_netlist.Netlist.n_cells nl in
  let cm ?x ?y ?orient ?variant ci = cell_move p ?x ?y ?orient ?variant ci in
  let checked = ref 0 and c3_changes = ref 0 in
  let check_move what prop =
    check_twin_move ~what p twin prop;
    incr checked
  in
  (* Positions on, one inside and one outside each blockage edge, plus
     uniform draws. *)
  let edge_xs =
    [| blockage.Rect.x0 - 1; blockage.Rect.x0; blockage.Rect.x0 + 1;
       blockage.Rect.x1 - 1; blockage.Rect.x1; blockage.Rect.x1 + 1 |]
  and edge_ys =
    [| blockage.Rect.y0 - 1; blockage.Rect.y0; blockage.Rect.y0 + 1;
       blockage.Rect.y1 - 1; blockage.Rect.y1; blockage.Rect.y1 + 1 |]
  in
  let rand_pos () =
    if Rng.bool_with_prob rng 0.6 then (Rng.pick rng edge_xs, Rng.pick rng edge_ys)
    else
      ( Rng.int_incl rng core.Rect.x0 core.Rect.x1,
        Rng.int_incl rng core.Rect.y0 core.Rect.y1 )
  in
  let module Cell = Twmc_netlist.Cell in
  let module Pin = Twmc_netlist.Pin in
  let module Orient = Twmc_geometry.Orient in
  let random_sites ci =
    let c = nl.Twmc_netlist.Netlist.cells.(ci) in
    let variant = Placement.cell_variant p ci in
    let sites =
      Array.init (Cell.n_pins c) (fun pin ->
          Placement.site_of_pin p ~cell:ci ~pin)
    in
    let uncommitted = ref [] in
    Array.iteri
      (fun pi pin ->
        if not (Pin.is_committed pin) then uncommitted := pi :: !uncommitted)
      c.Cell.pins;
    match !uncommitted with
    | [] -> None
    | l -> (
        let pin = List.nth l (Rng.int_incl rng 0 (List.length l - 1)) in
        match Cell.allowed_sites c ~variant pin with
        | [] -> None
        | allowed ->
            sites.(pin) <- Rng.pick_list rng allowed;
            Some sites)
  in
  for i = 1 to 40 do
    let ci = Rng.int_incl rng 0 (n - 1) in
    let x, y = rand_pos () in
    check_move "c-displace" (cm ~x ~y ci);
    let o = Rng.pick_list rng Orient.all in
    check_move "c-orient" (cm ~orient:o ci);
    let x, y = rand_pos () in
    let o = Rng.pick_list rng Orient.all in
    check_move "c-displace+orient" (cm ~x ~y ~orient:o ci);
    let cj = Rng.int_incl rng 0 (n - 1) in
    if cj <> ci then check_move "c-interchange" (interchange p ci cj);
    let c = nl.Twmc_netlist.Netlist.cells.(ci) in
    if Cell.n_variants c > 1 then begin
      let v' = Rng.int_incl rng 0 (Cell.n_variants c - 1) in
      check_move "c-variant" (cm ~variant:v' ci)
    end;
    check_crowd ~check_move ~changes:c3_changes p ci;
    (match random_sites ci with
    | Some sites -> check_move "c-sites" (Sites { ci; sites })
    | None -> ());
    (match random_sites ci with
    | Some sites -> check_move "c-sites again" (Sites { ci; sites })
    | None -> ());
    if i = 20 then begin
      Placement.set_expander p (Placement.Static (Array.make n (3, 3, 3, 3)));
      Placement.set_expander twin
        (Placement.Static (Array.make n (3, 3, 3, 3)))
    end
  done;
  checkb "coverage: enough constrained move kinds exercised" true
    (!checked > 150);
  checkb "coverage: site moves changed C3" true (!c3_changes >= 5);
  assert_constraint_accounting ~what:"constrained delta-vs-commit end" p;
  assert_constraint_accounting ~what:"constrained set_cell end" twin;
  Placement.verify_index p;
  Placement.verify_index twin;
  Placement.verify_consistency twin;
  assert_no_drift ~what:"constrained delta-vs-apply end" p

(* The per-cell C4 shares.  An evaluation updates a blockage penalty, and
   a keepout penalty when the owner is not the mover, by the moved cell's
   share alone: its share before the move, read before its pending slot
   is rewritten, against the owner's halo in the state the evaluation
   holds it in.  Each proposal through [check_twin_move], with every
   cached penalty checked against a fresh evaluation after each move:
   interchanges with a keepout owner moving first and second (also two
   owners swapping), and displacements that carry a cell's edge across a
   blockage edge or a keepout's halo edge. *)
let test_delta_vs_apply_shares () =
  let module Constr = Twmc_netlist.Constr in
  let module Orient = Twmc_geometry.Orient in
  let seed = 913 in
  let rng = Rng.create ~seed in
  let nl =
    Mutate.apply_all
      ~rng:(Rng.create ~seed:(seed lxor 0x5a5a))
      [ Mutate.Add_blockages 2; Mutate.Add_keepouts 2 ]
      (Synth.generate ~seed:29
         { Synth.default_spec with
           Synth.n_cells = 9;
           n_nets = 24;
           n_pins = 64;
           frac_custom = 0.5;
           frac_rectilinear = 0.5 })
  in
  let cons = nl.Twmc_netlist.Netlist.constraints in
  let keepouts =
    Array.to_list cons
    |> List.filter_map (function
         | Constr.Keepout { cell; margin } -> Some (cell, margin)
         | _ -> None)
  and blockages =
    Array.to_list cons
    |> List.filter_map (function Constr.Blockage r -> Some r | _ -> None)
  in
  checkb "two keepouts on two cells" true
    (match keepouts with [ (a, _); (b, _) ] -> a <> b | _ -> false);
  checkb "two blockages" true (List.length blockages = 2);
  let owners = List.map fst keepouts in
  let core = centered_core ~w:300 ~h:300 in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  let twin =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng:(Rng.create ~seed) nl
  in
  Placement.set_p2 p 0.7;
  Placement.set_p2 twin 0.7;
  let n = Twmc_netlist.Netlist.n_cells nl in
  let cm ?x ?y ci = cell_move p ?x ?y ci in
  let checked = ref 0 and keepout_changes = ref 0 in
  let check what prop =
    let before =
      Array.init (Array.length cons) (Placement.constraint_penalty twin)
    in
    check_twin_move ~what p twin prop;
    assert_constraint_accounting ~what p;
    assert_constraint_accounting ~what:(what ^ " (committed)") twin;
    Array.iteri
      (fun k c ->
        match c with
        | Constr.Keepout _
          when Placement.constraint_penalty twin k <> before.(k) ->
            incr keepout_changes
        | _ -> ())
      cons;
    incr checked
  in
  let hull = function
    | [] -> Rect.empty
    | r :: rest -> List.fold_left Rect.hull r rest
  in
  (* The owner's halo as one rectangle: each of its edges is an edge of
     one halo tile. *)
  let halo (owner, margin) =
    Rect.expand_uniform (hull (Placement.abs_tiles p owner)) margin
  in
  (* Displacements of [ci] that put its left, right, bottom or top edge one
     unit before, on and one unit past each edge of [r], centred on [r]
     along the other axis. *)
  let cross_edges what ci r =
    let x, y = Placement.cell_pos p ci in
    let bb = hull (Placement.abs_tiles p ci) in
    let left = x - bb.Rect.x0 and right = bb.Rect.x1 - x
    and below = y - bb.Rect.y0 and above = bb.Rect.y1 - y in
    let cx, cy = Rect.center r in
    List.iter
      (fun d ->
        List.iter
          (fun e ->
            check (what ^ " x") (cm ~x:(e + d - right) ~y:cy ci);
            check (what ^ " x") (cm ~x:(e + d + left) ~y:cy ci))
          [ r.Rect.x0; r.Rect.x1 ];
        List.iter
          (fun e ->
            check (what ^ " y") (cm ~x:cx ~y:(e + d - above) ci);
            check (what ^ " y") (cm ~x:cx ~y:(e + d + below) ci))
          [ r.Rect.y0; r.Rect.y1 ])
      [ -1; 0; 1 ]
  in
  let swap what i j =
    check what (interchange p i j);
    let oi = Orient.aspect_inversion_of (Placement.cell_orient p i)
    and oj = Orient.aspect_inversion_of (Placement.cell_orient p j) in
    check (what ^ " inverted") (interchange p ~orient_i:oi ~orient_j:oj i j)
  in
  for round = 1 to 3 do
    for ci = 0 to n - 1 do
      List.iter (fun r -> cross_edges "across a blockage edge" ci r) blockages;
      List.iter
        (fun ((owner, _) as k) ->
          if owner <> ci then cross_edges "across a halo edge" ci (halo k))
        keepouts;
      List.iter
        (fun o ->
          if o <> ci then begin
            swap "owner moves first" o ci;
            swap "owner moves second" ci o
          end)
        owners;
      (* Park the cell on an owner's halo for the next round. *)
      let owner = List.nth owners (round mod 2) in
      if owner <> ci then begin
        let ox, oy = Placement.cell_pos p owner in
        check "onto a halo" (cm ~x:(ox + round) ~y:(oy - round) ci)
      end
    done;
    (match owners with
    | [ a; b ] -> swap "two owners swap" a b
    | _ -> ())
  done;
  checkb "coverage: enough share moves exercised" true (!checked > 500);
  checkb "coverage: moves changed a keepout penalty" true
    (!keepout_changes > 50);
  Placement.verify_consistency twin;
  assert_no_drift ~what:"shares end" p

(* [commit] installs only an evaluation of the current placement: any
   mutation after the evaluation — here a [set_cell] — makes it raise,
   and so does a second commit of the same evaluation. *)
let test_commit_stale_raises () =
  let nl =
    Synth.generate ~seed:23
      { Synth.default_spec with Synth.n_cells = 6; n_nets = 15; n_pins = 40 }
  in
  let core = centered_core ~w:260 ~h:260 in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:Placement.No_expansion ~rng:(Rng.create ~seed:5) nl
  in
  let move x =
    Placement.delta_cell p 0 ~x ~y:0 ~orient:(Placement.cell_orient p 0)
      ~variant:(Placement.cell_variant p 0)
  in
  let stale = Invalid_argument "Placement.commit: no evaluation of the current placement" in
  Alcotest.check_raises "commit before any evaluation" stale (fun () ->
      Placement.commit p);
  ignore (move 10);
  Placement.set_cell p 1 ~x:(-20) ();
  Alcotest.check_raises "commit after set_cell" stale (fun () ->
      Placement.commit p);
  ignore (move 30);
  Placement.commit p;
  checkb "committed move installed" true (Placement.cell_pos p 0 = (30, 0));
  Alcotest.check_raises "second commit of one evaluation" stale (fun () ->
      Placement.commit p);
  Placement.verify_consistency p

(* A [set_cell] that raises changes nothing: the error comes from the
   evaluation, before any cell field, cache or accumulator is written, so
   the position and [total_cost] stay as they were, nothing drifts, and
   there is no evaluation left to commit.  Out-of-range pin sites are
   rejected where the assignment enters, against the variant the move
   evaluates, through [set_cell] and [delta_sites]. *)
let test_set_cell_raises_unchanged () =
  let module Builder = Twmc_netlist.Builder in
  let module Cell = Twmc_netlist.Cell in
  let module Pin = Twmc_netlist.Pin in
  let module Shape = Twmc_geometry.Shape in
  (* Cell 0 has two uncommitted pins and two instances: an L, whose six
     edges carry more sites than the four of the rectangle. *)
  let b = Builder.create ~name:"sites" ~track_spacing:2 in
  Builder.add_custom_instances b ~name:"a"
    ~shapes:
      [ Shape.l_shape ~w:40 ~h:40 ~notch_w:20 ~notch_h:20;
        Shape.rectangle ~w:40 ~h:20 ]
    ~pins:
      [ Builder.on ~name:"p" ~net:"n0" Pin.Any_edge;
        Builder.on ~name:"q" ~net:"n1" Pin.Any_edge ]
    ();
  List.iter
    (fun name ->
      Builder.add_macro b ~name ~shape:(Shape.rectangle ~w:20 ~h:20)
        ~pins:
          [ Builder.at ~name:"p" ~net:"n0" (20, 10);
            Builder.at ~name:"q" ~net:"n1" (10, 20) ])
    [ "b"; "c" ];
  let nl = Builder.build b in
  let p =
    Placement.create ~params:Params.default ~core:(centered_core ~w:120 ~h:120)
      ~expander:(Placement.Static (Array.make 3 (2, 2, 2, 2)))
      ~rng:(Rng.create ~seed:38) nl
  in
  Placement.set_p2 p 0.5;
  let c = nl.Twmc_netlist.Netlist.cells.(0) in
  let sites_of () =
    Array.init (Cell.n_pins c) (fun pin -> Placement.site_of_pin p ~cell:0 ~pin)
  in
  (* [f] raises [Invalid_argument msg], and cell 0, [total_cost] and every
     cache are as they were, with no evaluation left to commit. *)
  let rejects what msg f =
    let pos = Placement.cell_pos p 0 and sites = sites_of () in
    let cost = Int64.bits_of_float (Placement.total_cost p) in
    Alcotest.check_raises what (Invalid_argument msg) f;
    checkb (what ^ ": position unchanged") true (Placement.cell_pos p 0 = pos);
    checkb (what ^ ": sites unchanged") true (sites_of () = sites);
    checkb (what ^ ": total_cost unchanged") true
      (Int64.bits_of_float (Placement.total_cost p) = cost);
    Alcotest.check_raises (what ^ ": nothing to commit")
      (Invalid_argument
         "Placement.commit: no evaluation of the current placement")
      (fun () -> Placement.commit p);
    assert_no_drift ~what p
  in
  let x, _ = Placement.cell_pos p 0 in
  rejects "wrong-length sites" "Placement: site assignment of the wrong length"
    (fun () -> Placement.set_cell p 0 ~x:(x + 50) ~sites:[||] ());
  let out_of_range = "Placement: pin site out of range for the variant" in
  let n_sites v = Array.length (Cell.variant c v).Cell.sites in
  checkb "committed as the L" true
    (Placement.cell_variant p 0 = 0 && n_sites 1 < n_sites 0);
  let with_pin0 s =
    let sites = sites_of () in
    sites.(0) <- s;
    sites
  in
  List.iter
    (fun s ->
      let sites = with_pin0 s and what = Printf.sprintf "site %d" s in
      rejects what out_of_range (fun () ->
          Placement.set_cell p 0 ~x:(x + 50) ~sites ());
      rejects (what ^ ", sites only") out_of_range (fun () ->
          Placement.set_cell p 0 ~sites ());
      rejects (what ^ ", delta_sites") out_of_range (fun () ->
          ignore (Placement.delta_sites p 0 sites)))
    [ -1; n_sites 0; n_sites 0 + 7 ];
  (* A site on the L's table, past the rectangle's: checked against the
     variant the move evaluates, and accepted for the committed one. *)
  let sites = with_pin0 (n_sites 1) in
  rejects "site past the new variant's table" out_of_range (fun () ->
      Placement.set_cell p 0 ~variant:1 ~sites ());
  Placement.set_cell p 0 ~sites ();
  checkb "valid sites installed" true (sites_of () = sites);
  Placement.verify_consistency p

(* A placement of a Synth netlist of 5-12 cells carrying every constraint
   type, under the dynamic expander: [make ()] gives a fresh one, the same
   netlist and state on every call. *)
let constrained_placement ~seed =
  let rng = Rng.create ~seed in
  let n_cells = Rng.int_incl rng 5 12 in
  let nl =
    constrain ~seed
      (Synth.generate ~seed
         { Synth.default_spec with
           Synth.name = "entry";
           n_cells;
           n_nets = 3 * n_cells;
           n_pins = 8 * n_cells;
           frac_custom = 0.5;
           frac_rectilinear = 0.4 })
  in
  let sizing = Twmc_estimator.Core_area.determine ~fill_target:0.6 nl in
  let core =
    centered_core ~w:sizing.Twmc_estimator.Core_area.core_w
      ~h:sizing.Twmc_estimator.Core_area.core_h
  in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let make () =
    let p =
      Placement.create ~params:Params.default ~core
        ~expander:(Placement.Dynamic est) ~rng:(Rng.create ~seed) nl
    in
    Placement.set_p2 p 0.7;
    p
  in
  make

(* [base] with net weights that are not integers, so C1 drifts along its
   incremental chain. *)
let weighted (base : Twmc_netlist.Netlist.t) =
  let module Net = Twmc_netlist.Net in
  let module Netlist = Twmc_netlist.Netlist in
  Netlist.make ~name:"weighted" ~track_spacing:base.Netlist.track_spacing
    ~constraints:(Array.to_list base.Netlist.constraints)
    ~cells:(Array.to_list base.Netlist.cells)
    ~nets:
      (Array.to_list
         (Array.mapi
            (fun k (net : Net.t) ->
              { net with
                Net.hweight = 1.0 +. (0.13 *. float_of_int (k mod 7));
                vweight = 0.3 +. (0.17 *. float_of_int (k mod 5)) })
            base.Netlist.nets))
    ()

(* [Placement.resum], the per-temperature correction, against
   [recompute_all] on a constrained netlist whose net weights are not
   integers: after each batch of hot and cold moves, all five totals after
   the re-sum equal those of a full recomputation bit for bit. *)
let test_resum_vs_recompute () =
  let nl =
    weighted
      (constrain ~seed:41
         (Synth.generate ~seed:41
            { Synth.default_spec with
              Synth.n_cells = 10;
              n_nets = 30;
              n_pins = 80;
              frac_custom = 0.5;
              frac_rectilinear = 0.4 }))
  in
  let core = centered_core ~w:320 ~h:320 in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let rng = Rng.create ~seed:42 in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  Placement.set_p2 p 0.6;
  let limiter = Range_limiter.of_core ~rho:4.0 ~t_inf:1e4 ~core in
  let ctx =
    Moves.make_ctx ~placement:p ~limiter ~stats:(Moves.make_stats ()) ()
  in
  let totals p =
    List.map Int64.bits_of_float
      [ Placement.c1 p; Placement.c2_raw p; Placement.c3 p; Placement.c4 p;
        Placement.teil p ]
  in
  let drifted = ref 0 in
  for b = 1 to 40 do
    let temp = if b mod 2 = 1 then 1e4 else 1.0 in
    for _ = 1 to 40 do
      Moves.generate ctx rng ~temp
    done;
    let c1 = Int64.bits_of_float (Placement.c1 p) in
    Placement.resum p;
    let resummed = totals p in
    Placement.recompute_all p;
    if Int64.bits_of_float (Placement.c1 p) <> c1 then incr drifted;
    if resummed <> totals p then
      Alcotest.failf "batch %d: re-summed totals differ from recompute_all" b
  done;
  checkb "coverage: C1 drifted before some re-sums" true (!drifted > 0)

(* A pin-site move rescans only the nets of the pins it moves, and copies
   the committed value of every other net of the cell.  [p] takes each
   proposal through [delta_sites] and [commit]; its same-seed [twin] takes
   it through [set_cell] at the cell's own position, the cell-move chain,
   which rescans every net of the cell.  On custom cells with many pins,
   nets with non-integer weights, and proposals that move one lone pin,
   shift a whole group, move several pins or change nothing, the delta must
   equal the twin's cost change, and C1, TEIL, C3 and the total must match,
   bit for bit. *)
let test_sites_vs_cell_chain () =
  let module Cell = Twmc_netlist.Cell in
  let module Pin = Twmc_netlist.Pin in
  let module Pin_site = Twmc_netlist.Pin_site in
  let nl =
    weighted
      (Synth.generate ~seed:25
         { Synth.default_spec with
           Synth.n_cells = 8;
           n_nets = 40;
           n_pins = 160;
           frac_custom = 0.8;
           frac_grouped_pins = 0.5 })
  in
  let core = centered_core ~w:320 ~h:320 in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let make () =
    let p =
      Placement.create ~params:Params.default ~core
        ~expander:(Placement.Dynamic est) ~rng:(Rng.create ~seed:25) nl
    in
    Placement.set_p2 p 0.6;
    p
  in
  let p = make () and twin = make () in
  let cells = nl.Twmc_netlist.Netlist.cells in
  let uncommitted ci =
    List.filter
      (fun pin -> not (Pin.is_committed cells.(ci).Cell.pins.(pin)))
      (List.init (Cell.n_pins cells.(ci)) Fun.id)
  in
  let custom =
    List.filter
      (fun ci -> List.length (uncommitted ci) >= 8)
      (List.init (Array.length cells) Fun.id)
  in
  checkb "coverage: custom cells with many pins" true (List.length custom >= 3);
  let rng = Rng.create ~seed:26 in
  let bits = Int64.bits_of_float in
  let group_shifts = ref 0 and c1_changes = ref 0 in
  for i = 0 to 239 do
    let ci = Rng.pick_list rng custom in
    let c = cells.(ci) in
    let variant = Placement.cell_variant p ci in
    let sites =
      Array.init (Cell.n_pins c) (fun pin ->
          Placement.site_of_pin p ~cell:ci ~pin)
    in
    let reassign pin =
      let allowed = Placement.allowed_sites p ~cell:ci ~variant ~pin in
      if Array.length allowed > 0 then sites.(pin) <- Rng.pick rng allowed
    in
    let what =
      match i mod 4 with
      | 0 ->
          (match Sites.lone_uncommitted c with
          | [] -> ()
          | lone -> reassign (Rng.pick_list rng lone));
          "lone pin"
      | 1 ->
          (match Sites.group_members c with
          | [] -> ()
          | groups ->
              (* Every member [off] sites along its edge, as a group
                 move's consecutive placement would leave it. *)
              let v = Cell.variant c variant in
              let ranges = Sites.edge_ranges v in
              let off = Rng.int_incl rng 1 3 in
              List.iter
                (fun pin ->
                  let s = sites.(pin) in
                  let start, len = ranges.(v.Cell.sites.(s).Pin_site.edge) in
                  sites.(pin) <- start + ((s - start + off) mod len))
                (snd (Rng.pick_list rng groups));
              incr group_shifts);
          "group"
      | 2 ->
          let unc = uncommitted ci in
          for _ = 1 to Rng.int_incl rng 2 5 do
            reassign (Rng.pick_list rng unc)
          done;
          "several pins"
      | _ -> "unchanged"
    in
    let what = Printf.sprintf "proposal %d (%s, cell %d)" i what ci in
    let c1 = Placement.c1 p in
    let d = Placement.delta_sites p ci sites in
    Placement.commit p;
    let t0 = Placement.total_cost twin in
    Placement.set_cell twin ci ~x:(Placement.cell_x twin ci)
      ~y:(Placement.cell_y twin ci) ~sites ();
    let measured = Placement.total_cost twin -. t0 in
    if bits d <> bits measured then
      Alcotest.failf "%s: delta_sites %.17g, cell-move chain %.17g" what d
        measured;
    if bits (Placement.total_cost p) <> bits (Placement.total_cost twin) then
      Alcotest.failf "%s: total %.17g, cell-move chain %.17g" what
        (Placement.total_cost p) (Placement.total_cost twin);
    assert_same_placement ~what ~against:"the cell-move chain" p twin;
    if bits (Placement.c1 p) <> bits c1 then incr c1_changes
  done;
  checkb "coverage: groups shifted" true (!group_shifts >= 20);
  checkb "coverage: C1 changed" true (!c1_changes >= 60);
  assert_no_drift ~what:"pin-site moves end" p

(* The memo of a moved cell's "before" overlap and shares is keyed by the
   cell and the mutation count.  [p] evaluates a move of cell [c], which
   fills the memo, then takes a mutation; its same-seed twin [q] takes the
   same mutation without having evaluated [c].  The next evaluation of a
   move of [c] must then agree on both, bit for bit, for each mutation: a
   committed interchange of [c] and another cell (on [p] with [c] moving
   first, which reads the memo; on [q] with [c] moving second, which
   takes its before terms afresh), [set_p2], [set_core], [set_expander],
   [recompute_all] and [restore_cost]. *)
let test_ladder_memo_invalidation () =
  let make = constrained_placement ~seed:57 in
  let n = Twmc_netlist.Netlist.n_cells (Placement.netlist (make ())) in
  checkb "two cells or more" true (n >= 2);
  let c = 0 and d = 1 in
  let mutations =
    [ ( "commit of an interchange",
        fun p ~fresh ->
          let i, j = if fresh then (d, c) else (c, d) in
          ignore
            (Placement.delta_interchange p i j
               ~orient_i:(Placement.cell_orient p i)
               ~orient_j:(Placement.cell_orient p j));
          Placement.commit p );
      ("set_p2", fun p ~fresh:_ -> Placement.set_p2 p 2.5);
      ( "set_core",
        fun p ~fresh:_ ->
          let core = Placement.core p in
          Placement.set_core p
            (Rect.make ~x0:(core.Rect.x0 / 2) ~y0:(core.Rect.y0 / 2)
               ~x1:(core.Rect.x1 / 2) ~y1:(core.Rect.y1 / 2)) );
      ( "set_expander",
        fun p ~fresh:_ ->
          Placement.set_expander p
            (Placement.Static (Array.make n (9, 7, 8, 6))) );
      ("recompute_all", fun p ~fresh:_ -> Placement.recompute_all p);
      ( "restore_cost",
        fun p ~fresh:_ ->
          Placement.restore_cost p (Placement.snapshot_cost p) ) ]
  in
  List.iter
    (fun (what, mutate) ->
      let p = make () and q = make () in
      (* [c] at the core's corner, where a core resize or an expander
         swap changes its boundary overlap. *)
      let core = Placement.core p in
      List.iter
        (fun pl -> Placement.set_cell pl c ~x:core.Rect.x1 ~y:core.Rect.y1 ())
        [ p; q ];
      let move pl =
        Placement.delta_cell pl c ~x:(core.Rect.x1 - 11) ~y:(core.Rect.y1 - 7)
          ~orient:(Placement.cell_orient pl c)
          ~variant:(Placement.cell_variant pl c)
      in
      ignore (move p);
      mutate p ~fresh:false;
      mutate q ~fresh:true;
      let dp = move p and dq = move q in
      if Int64.bits_of_float dp <> Int64.bits_of_float dq then
        Alcotest.failf "after %s: delta %.17g, fresh twin %.17g" what dp dq;
      Placement.commit p;
      Placement.commit q;
      assert_same_placement ~what ~against:"fresh twin" p q)
    mutations

(* Each entry point allocates nothing but its boxed float result: 10,000
   rejected proposals of each kind (pre-drawn, never committed) —
   displacements with an orientation, interchanges and pin-site moves —
   on an unconstrained netlist, after a warm-up that fills the geometry
   caches, under the stage-1 dynamic and the stage-2 static expander; on
   a circuit below [Placement.grid_min_cells] and one above it. *)
let entry_points_no_alloc_run ~n_cells ~side =
  let nl =
    Synth.generate ~seed:31
      { Synth.default_spec with
        Synth.n_cells;
        n_nets = 30 * n_cells / 12;
        n_pins = 90 * n_cells / 12;
        frac_custom = 0.5;
        frac_rectilinear = 0.4 }
  in
  let core = centered_core ~w:side ~h:side in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng:(Rng.create ~seed:32) nl
  in
  let rng = Rng.create ~seed:33 in
  let n = Twmc_netlist.Netlist.n_cells nl in
  let module Orient = Twmc_geometry.Orient in
  let module Cell = Twmc_netlist.Cell in
  let targets =
    Array.init 256 (fun _ ->
        let ci = Rng.int_incl rng 0 (n - 1) in
        let x = Rng.int_incl rng core.Rect.x0 core.Rect.x1 in
        let y = Rng.int_incl rng core.Rect.y0 core.Rect.y1 in
        (ci, x, y))
  in
  let orients = Array.init 256 (fun k -> Orient.of_int (k land 7)) in
  let partners =
    Array.map
      (fun (ci, _, _) -> (ci + 1 + Rng.int_incl rng 0 (n - 2)) mod n)
      targets
  in
  let sites =
    Array.map
      (fun (ci, _, _) ->
        Array.init
          (Cell.n_pins nl.Twmc_netlist.Netlist.cells.(ci))
          (fun pin -> Placement.site_of_pin p ~cell:ci ~pin))
      targets
  in
  let iters = 10_000 in
  let measure_one what f =
    for k = 0 to 255 do
      ignore (f k)
    done;
    let w0 = Gc.minor_words () in
    for i = 0 to iters - 1 do
      ignore (f (i land 255))
    done;
    let w1 = Gc.minor_words () in
    let per_call = (w1 -. w0) /. float_of_int iters in
    checkb
      (Printf.sprintf "%d cells, %s: %.2f minor words per call" n what per_call)
      true (per_call <= 2.0)
  in
  let measure expander =
    measure_one (expander ^ ", delta_cell") (fun k ->
        let ci, x, y = targets.(k) in
        Placement.delta_cell p ci ~x ~y ~orient:orients.(k)
          ~variant:(Placement.cell_variant p ci));
    measure_one (expander ^ ", delta_interchange") (fun k ->
        let ci, _, _ = targets.(k) in
        Placement.delta_interchange p ci partners.(k) ~orient_i:orients.(k)
          ~orient_j:orients.(255 - k));
    measure_one (expander ^ ", delta_sites") (fun k ->
        let ci, _, _ = targets.(k) in
        Placement.delta_sites p ci sites.(k))
  in
  measure "dynamic expander";
  Placement.set_expander p (Placement.Static (Array.make n (4, 3, 2, 5)));
  measure "static expander"

(* What one [Moves.generate] call allocates, on a macro-only circuit (no
   pin or variant moves) at T = 1, where nearly every displacement runs
   the whole rescue ladder and interchanges are retried inverted.  The
   proposals themselves allocate nothing: what remains is the boxed
   result of each evaluation, the boxed uniform draw of each Metropolis
   test of an uphill move, and the step pair the range limiter returns.
   This circuit measured 21.9 words per call (x86-64, OCaml 5.1.1); the
   bound is that plus about a quarter, so an allocating proposal (a
   one-element list of a record of options alone is 12-16 words per
   trial) cannot come back unnoticed. *)
let test_generate_alloc_bound () =
  let nl =
    Synth.generate ~seed:61
      { Synth.default_spec with
        Synth.n_cells = 10;
        n_nets = 24;
        n_pins = 70;
        frac_custom = 0.0;
        frac_rectilinear = 0.3 }
  in
  let core = centered_core ~w:360 ~h:360 in
  let est =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let rng = Rng.create ~seed:62 in
  let p =
    Placement.create ~params:Params.default ~core
      ~expander:(Placement.Dynamic est) ~rng nl
  in
  Placement.set_p2 p 0.5;
  let limiter = Range_limiter.of_core ~rho:4.0 ~t_inf:1e4 ~core in
  let stats = Moves.make_stats () in
  let ctx = Moves.make_ctx ~placement:p ~limiter ~stats () in
  let temp = 1.0 in
  for _ = 1 to 2_000 do
    Moves.generate ctx rng ~temp
  done;
  let attempts = Array.copy stats.Moves.class_attempts in
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Moves.generate ctx rng ~temp
  done;
  let w1 = Gc.minor_words () in
  let per_call = (w1 -. w0) /. float_of_int iters in
  let tried cls = stats.Moves.class_attempts.(cls) - attempts.(cls) in
  (* Classes in [Moves.class_name] order: displace, displace_inverted,
     orient, interchange, interchange_inverted. *)
  checkb "coverage: the ladder's third rung runs" true (tried 2 > iters / 4);
  checkb "coverage: inverted interchanges run" true (tried 4 > iters / 20);
  checkb
    (Printf.sprintf "%.2f minor words per generate call" per_call)
    true (per_call <= 28.0)

let test_entry_points_no_alloc () =
  entry_points_no_alloc_run ~n_cells:12 ~side:400;
  entry_points_no_alloc_run ~n_cells:(Placement.grid_min_cells + 12) ~side:900

let () =
  Alcotest.run "incremental"
    [ ( "differential",
        [ Alcotest.test_case "500 moves, 5 random netlists" `Quick
            test_differential_small_seeds;
          Alcotest.test_case "500 moves, 3 more netlists" `Slow
            test_differential_more_seeds;
          Alcotest.test_case "per-move term agreement" `Quick
            test_per_move_terms;
          Alcotest.test_case "indexed overlap vs full scan" `Quick
            test_index_vs_scan;
          Alcotest.test_case "entry points vs apply-and-measure" `Quick
            test_delta_vs_apply;
          Alcotest.test_case "500 moves, 3 constrained netlists" `Quick
            test_differential_constrained;
          Alcotest.test_case "constrained entry points vs apply" `Quick
            test_delta_vs_apply_constrained;
          Alcotest.test_case "per-cell C4 shares vs apply" `Quick
            test_delta_vs_apply_shares;
          Alcotest.test_case "commit of a stale evaluation raises" `Quick
            test_commit_stale_raises;
          Alcotest.test_case "set_cell that raises changes nothing" `Quick
            test_set_cell_raises_unchanged;
          Alcotest.test_case "entry points allocate only a float" `Quick
            test_entry_points_no_alloc;
          Alcotest.test_case "generate allocates a bounded amount" `Quick
            test_generate_alloc_bound;
          Alcotest.test_case "resum equals recompute_all" `Quick
            test_resum_vs_recompute;
          Alcotest.test_case "pin-site moves match the full cell-move chain"
            `Quick test_sites_vs_cell_chain;
          Alcotest.test_case "ladder memo invalidated by mutations" `Quick
            test_ladder_memo_invalidation ] ) ]
