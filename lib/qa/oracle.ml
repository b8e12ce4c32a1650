open Twmc_geometry
open Twmc_netlist
module Placement = Twmc_place.Placement
module Params = Twmc_place.Params
module Stage1 = Twmc_place.Stage1
module Router = Twmc_route.Global_router
module Steiner = Twmc_route.Steiner
module Graph = Twmc_channel.Graph
module Pin_map = Twmc_channel.Pin_map
module Rng = Twmc_sa.Rng

type failure = { oracle : string; detail : string }

let pp_failure ppf f = Format.fprintf ppf "[%s] %s" f.oracle f.detail

let fail oracle fmt = Printf.ksprintf (fun detail -> [ { oracle; detail } ]) fmt

(* Relative closeness generous enough to absorb re-summation noise but far
   below any real accounting error (a misplaced pin moves C1 by whole
   units). *)
let rel_close ?(tol = 1e-6) a b =
  Float.abs (a -. b) <= tol *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------- placement oracles *)

let finite_costs p =
  List.concat_map
    (fun (name, v) ->
      if not (Float.is_finite v) then
        fail "finite-costs" "%s is not finite: %g" name v
      else if v < 0.0 then fail "finite-costs" "%s is negative: %g" name v
      else [])
    [ ("C1", Placement.c1 p); ("C2", Placement.c2_raw p);
      ("C3", Placement.c3 p); ("C4", Placement.c4 p);
      ("TEIL", Placement.teil p) ]

(* C1 and TEIL recomputed the obvious way — net by net from the exact pin
   positions — with none of the incremental machinery. *)
let independent_c1_teil p =
  let nl = Placement.netlist p in
  let c1 = ref 0.0 and teil = ref 0.0 in
  Array.iter
    (fun (net : Net.t) ->
      let minx = ref max_int and maxx = ref min_int in
      let miny = ref max_int and maxy = ref min_int in
      Array.iter
        (fun (r : Net.pin_ref) ->
          let x, y = Placement.pin_position p ~cell:r.Net.cell ~pin:r.Net.pin in
          if x < !minx then minx := x;
          if x > !maxx then maxx := x;
          if y < !miny then miny := y;
          if y > !maxy then maxy := y)
        net.Net.pins;
      let dx = float_of_int (!maxx - !minx)
      and dy = float_of_int (!maxy - !miny) in
      c1 := !c1 +. (dx *. net.Net.hweight) +. (dy *. net.Net.vweight);
      teil := !teil +. dx +. dy)
    nl.Netlist.nets;
  (!c1, !teil)

let teic_independent p =
  let c1', teil' = independent_c1_teil p in
  let check name got want =
    if rel_close got want then []
    else
      fail "teic-independent" "%s: incremental %.12g vs independent %.12g"
        name want got
  in
  check "C1" c1' (Placement.c1 p) @ check "TEIL" teil' (Placement.teil p)

(* Apply a whole-placement transformation, run [check], and restore the
   original state whatever happens — the caller's placement must come back
   untouched even when the oracle reports a violation. *)
let with_restored p ~transform ~restore check =
  transform p;
  Fun.protect
    ~finally:(fun () ->
      restore p;
      Placement.recompute_all p)
    (fun () ->
      Placement.recompute_all p;
      check ())

let translation p =
  let n = Netlist.n_cells (Placement.netlist p) in
  let dx = 37 and dy = -23 in
  let c1_0 = Placement.c1 p and teil_0 = Placement.teil p in
  let shift sx sy p =
    for ci = 0 to n - 1 do
      let x, y = Placement.cell_pos p ci in
      Placement.set_cell p ci ~x:(x + sx) ~y:(y + sy) ()
    done
  in
  let moved =
    with_restored p ~transform:(shift dx dy) ~restore:(shift (-dx) (-dy))
      (fun () ->
        let check name got want =
          if rel_close ~tol:1e-9 got want then []
          else
            fail "translation" "%s changed under (%d,%d) shift: %.12g -> %.12g"
              name dx dy want got
        in
        check "C1" (Placement.c1 p) c1_0 @ check "TEIL" (Placement.teil p) teil_0)
  in
  let back =
    if rel_close ~tol:1e-9 (Placement.c1 p) c1_0 then []
    else
      fail "translation" "C1 not restored after round-trip: %.12g -> %.12g"
        c1_0 (Placement.c1 p)
  in
  moved @ back

let orient_cycle p =
  let nl = Placement.netlist p in
  let n = Netlist.n_cells nl in
  let c1_0 = Placement.c1 p and teil_0 = Placement.teil p in
  let probe ci =
    let o0 = Placement.cell_orient p ci in
    List.iter (fun o -> Placement.set_cell p ci ~orient:o ()) Orient.all;
    Placement.set_cell p ci ~orient:o0 ();
    Placement.recompute_all p;
    if rel_close ~tol:1e-9 (Placement.c1 p) c1_0
       && rel_close ~tol:1e-9 (Placement.teil p) teil_0
    then []
    else
      fail "orient-cycle"
        "cell %d: C1/TEIL not restored after orientation cycle: %.12g/%.12g \
         -> %.12g/%.12g"
        ci c1_0 teil_0 (Placement.c1 p) (Placement.teil p)
  in
  probe 0 @ if n > 1 then probe (n - 1) else []

(* Reverse the cell order (remapping every net's pin references), rebuild
   the geometry in a fresh placement, and compare: the TEIC cannot care
   what the cells are called. *)
let relabel p =
  let nl = Placement.netlist p in
  let n = Netlist.n_cells nl in
  let old_of_new j = n - 1 - j in
  let new_of_old = Array.init n old_of_new in
  let cells' = List.init n (fun j -> nl.Netlist.cells.(old_of_new j)) in
  let nets' =
    Array.to_list nl.Netlist.nets
    |> List.map (fun (net : Net.t) ->
           Net.make ~name:net.Net.name ~hweight:net.Net.hweight
             ~vweight:net.Net.vweight
             (Array.to_list net.Net.pins
             |> List.map (fun (r : Net.pin_ref) ->
                    { Net.cell = new_of_old.(r.Net.cell); pin = r.Net.pin })))
  in
  match
    Netlist.make ~name:(nl.Netlist.name ^ "-relabel")
      ~track_spacing:nl.Netlist.track_spacing ~cells:cells' ~nets:nets' ()
  with
  | exception Invalid_argument m ->
      fail "relabel" "permuted netlist failed to rebuild: %s" m
  | nl' ->
      let q =
        Placement.create ~params:(Placement.params p) ~core:(Placement.core p)
          ~expander:Placement.No_expansion ~rng:(Rng.create ~seed:0) nl'
      in
      for j = 0 to n - 1 do
        let old = old_of_new j in
        let x, y = Placement.cell_pos p old in
        Placement.set_cell q j ~x ~y
          ~orient:(Placement.cell_orient p old)
          ~variant:(Placement.cell_variant p old)
          ~sites:
            (Array.init
               (Cell.n_pins nl.Netlist.cells.(old))
               (fun k -> Placement.site_of_pin p ~cell:old ~pin:k))
          ()
      done;
      Placement.recompute_all q;
      let check name got want =
        if rel_close ~tol:1e-9 got want then []
        else
          fail "relabel" "%s changed under cell relabeling: %.12g -> %.12g"
            name want got
      in
      check "C1" (Placement.c1 q) (Placement.c1 p)
      @ check "TEIL" (Placement.teil q) (Placement.teil p)

(* ------------------------------------------------ constraint oracles *)

(* Every constraint penalty is an exact integer carried in a float, so the
   oracles below compare with [=]: any difference — even one ulp — is an
   accounting bug, never float noise. *)

(* Rebuild the placement's exact geometry in a fresh placement over a
   (possibly modified) constraint set and core, shifting every cell by
   [(dx, dy)] — the metamorphic oracles compare C4 across this twin. *)
let constrained_twin p ~name_suffix ~constraints ?(dx = 0) ?(dy = 0) ?core ()
    =
  let nl = Placement.netlist p in
  match
    Netlist.make ~name:(nl.Netlist.name ^ name_suffix)
      ~track_spacing:nl.Netlist.track_spacing ~constraints
      ~cells:(Array.to_list nl.Netlist.cells)
      ~nets:(Array.to_list nl.Netlist.nets)
      ()
  with
  | exception Invalid_argument m -> Error m
  | nl' ->
      let core =
        match core with Some c -> c | None -> Placement.core p
      in
      let q =
        Placement.create ~params:(Placement.params p) ~core
          ~expander:Placement.No_expansion ~rng:(Rng.create ~seed:0) nl'
      in
      let n = Netlist.n_cells nl in
      for ci = 0 to n - 1 do
        let x, y = Placement.cell_pos p ci in
        Placement.set_cell q ci ~x:(x + dx) ~y:(y + dy)
          ~orient:(Placement.cell_orient p ci)
          ~variant:(Placement.cell_variant p ci)
          ~sites:
            (Array.init
               (Cell.n_pins nl.Netlist.cells.(ci))
               (fun k -> Placement.site_of_pin p ~cell:ci ~pin:k))
          ()
      done;
      Placement.recompute_all q;
      Ok q

(* Accounting: each cached per-constraint penalty, and the C4 accumulator,
   must equal a from-scratch evaluation bit-for-bit. *)
let constraints_accounting p =
  let acc = ref [] and sum = ref 0.0 in
  for k = 0 to Placement.n_constraints p - 1 do
    let fresh = Placement.eval_constraint p k in
    sum := !sum +. fresh;
    let cached = Placement.constraint_penalty p k in
    if cached <> fresh then
      acc :=
        !acc
        @ fail "constraints-accounting"
            "constraint %d (%s): cached penalty %.17g vs fresh %.17g" k
            (Constr.kind_name (Placement.constraints p).(k))
            cached fresh
  done;
  let c4 = Placement.c4 p in
  if c4 = !sum then !acc
  else
    !acc
    @ fail "constraints-accounting" "C4 accumulator %.17g vs fresh sum %.17g"
        c4 !sum

(* Translating the constraints, the core and the whole placement together
   leaves every penalty — hence C4 — unchanged. *)
let constraints_translation p =
  let dx = 29 and dy = -17 in
  let cons =
    Array.to_list
      (Array.map (Constr.translate ~dx ~dy) (Placement.constraints p))
  in
  match
    constrained_twin p ~name_suffix:"-shift" ~constraints:cons ~dx ~dy
      ~core:(Rect.translate (Placement.core p) ~dx ~dy)
      ()
  with
  | Error m ->
      fail "constraints-translation" "shifted netlist failed to rebuild: %s" m
  | Ok q ->
      let c4 = Placement.c4 p and c4' = Placement.c4 q in
      if c4' = c4 then []
      else
        fail "constraints-translation"
          "C4 changed under whole-layout (%d,%d) shift: %.17g -> %.17g" dx dy
          c4 c4'

(* Tightening every density cap cannot decrease C4. *)
let density_monotone p =
  let cons = Placement.constraints p in
  if
    not (Array.exists (function Constr.Density _ -> true | _ -> false) cons)
  then []
  else
    let tightened =
      Array.to_list
        (Array.map
           (function
             | Constr.Density { rect; cap_permille } ->
                 Constr.Density
                   { rect; cap_permille = max 1 (cap_permille / 2) }
             | c -> c)
           cons)
    in
    match constrained_twin p ~name_suffix:"-tight" ~constraints:tightened () with
    | Error m ->
        fail "density-monotone" "tightened netlist failed to rebuild: %s" m
    | Ok q ->
        if Placement.c4 q >= Placement.c4 p then []
        else
          fail "density-monotone"
            "halving density caps decreased C4: %.17g -> %.17g"
            (Placement.c4 p) (Placement.c4 q)

(* Widening every keepout halo cannot decrease C4. *)
let keepout_monotone p =
  let cons = Placement.constraints p in
  if
    not (Array.exists (function Constr.Keepout _ -> true | _ -> false) cons)
  then []
  else
    let widened =
      Array.to_list
        (Array.map
           (function
             | Constr.Keepout { cell; margin } ->
                 Constr.Keepout { cell; margin = margin + 2 }
             | c -> c)
           cons)
    in
    match constrained_twin p ~name_suffix:"-wide" ~constraints:widened () with
    | Error m ->
        fail "keepout-monotone" "widened netlist failed to rebuild: %s" m
    | Ok q ->
        if Placement.c4 q >= Placement.c4 p then []
        else
          fail "keepout-monotone"
            "widening keepout margins by 2 decreased C4: %.17g -> %.17g"
            (Placement.c4 p) (Placement.c4 q)

(* At its fixed target a cell pays nothing; anywhere else it pays exactly
   the Manhattan distance to the target. *)
let fixed_oracles p =
  let cons = Placement.constraints p in
  let acc = ref [] in
  Array.iteri
    (fun k c ->
      match c with
      | Constr.Fixed { cell; x; y } ->
          let cx, cy = Placement.cell_pos p cell in
          let want = float_of_int (abs (cx - x) + abs (cy - y)) in
          let got = Placement.constraint_penalty p k in
          let exactness =
            if got = want then []
            else
              fail "fixed-exactness"
                "constraint %d: cached penalty %.17g, |pos - target| = %.17g"
                k got want
          in
          let zero =
            with_restored p
              ~transform:(fun p -> Placement.set_cell p cell ~x ~y ())
              ~restore:(fun p -> Placement.set_cell p cell ~x:cx ~y:cy ())
              (fun () ->
                let pen = Placement.constraint_penalty p k in
                if pen = 0.0 then []
                else
                  fail "fixed-zero"
                    "constraint %d: cell %d at its fixed target still pays \
                     %.17g"
                    k cell pen)
          in
          acc := !acc @ exactness @ zero
      | _ -> ())
    cons;
  !acc

(* The constraint-penalty pack (empty list immediately when the netlist has
   no constraints), in order: [constraints-accounting] (each cached
   per-constraint penalty and the C4 accumulator equal a from-scratch
   evaluation bit-for-bit — penalties are exact integers, so [=] is the
   comparison), [fixed-exactness] / [fixed-zero] (a fixed cell's penalty is
   exactly its Manhattan distance to the target, and zero at the target),
   [constraints-translation] (translating constraints, core and placement
   together leaves C4 unchanged), [density-monotone] (halving every density
   cap cannot decrease C4) and [keepout-monotone] (widening every keepout
   margin cannot decrease C4).  Runs before the transformation oracles
   inside [check_placement] because those end in a repairing recompute. *)
let check_constraints p =
  if Placement.n_constraints p = 0 then []
  else
    (* Accounting first: the metamorphic oracles below rebuild twins or end
       in recompute_all, which would repair a corrupted accumulator before
       it could be observed. *)
    let accounting = constraints_accounting p in
    let fixed = fixed_oracles p in
    let translated = constraints_translation p in
    let density = density_monotone p in
    let keepout = keepout_monotone p in
    accounting @ fixed @ translated @ density @ keepout

let check_placement p =
  let finite = finite_costs p in
  if finite <> [] then finite
  else
    (* Sequence explicitly: [@] evaluates right-to-left, and the
       transformation oracles end in recompute_all — which would repair a
       corrupted accumulator before teic_independent could see it. *)
    let independent = teic_independent p in
    let constrained = check_constraints p in
    let translated = translation p in
    let oriented = orient_cycle p in
    independent @ constrained @ translated @ oriented @ relabel p

(* --------------------------------------------------- routing oracles *)

(* Single-source-set Dijkstra over the channel graph by edge length;
   graphs are a few hundred nodes, so the O(V²) scan is plenty. *)
let dijkstra (g : Graph.t) sources =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int in
  let visited = Array.make n false in
  List.iter (fun s -> dist.(s) <- 0) sources;
  let rec loop () =
    let u = ref (-1) and best = ref max_int in
    for v = 0 to n - 1 do
      if (not visited.(v)) && dist.(v) < !best then begin
        u := v;
        best := dist.(v)
      end
    done;
    if !u >= 0 then begin
      visited.(!u) <- true;
      Graph.iter_neighbours g !u (fun eid v ->
          let e = g.Graph.edges.(eid) in
          if dist.(!u) + e.Graph.length < dist.(v) then
            dist.(v) <- dist.(!u) + e.Graph.length);
      loop ()
    end
  in
  loop ();
  dist

(* The largest pairwise terminal-to-terminal shortest-path distance: any
   tree connecting the terminals contains a path between each pair, so
   this is an admissible lower bound on the route length. *)
let steiner_lower_bound g (terminals : Pin_map.terminal list) =
  let dists =
    List.map (fun t -> dijkstra g t.Pin_map.candidates) terminals
  in
  let best_to dist (t : Pin_map.terminal) =
    List.fold_left (fun acc c -> min acc dist.(c)) max_int t.Pin_map.candidates
  in
  List.fold_left
    (fun acc dist ->
      List.fold_left
        (fun acc t ->
          let d = best_to dist t in
          if d = max_int then acc else max acc d)
        acc terminals)
    0 dists

let route_structure (g : Graph.t) (task : Pin_map.net_task)
    (rn : Router.routed_net) =
  let name = Printf.sprintf "net %d" rn.Router.net in
  let r = rn.Router.route in
  let bad_edge =
    List.exists (fun e -> e < 0 || e >= Graph.n_edges g) r.Steiner.edges
  in
  if bad_edge then fail "route-structure" "%s: edge id out of range" name
  else
    let len = List.fold_left (fun a e -> a + g.Graph.edges.(e).Graph.length) 0 r.Steiner.edges in
    let length_ok =
      if len = r.Steiner.length then []
      else
        fail "route-accounting" "%s: stored length %d, edges sum to %d" name
          r.Steiner.length len
    in
    (* Connectivity: walk the route's edge subgraph from one covered node. *)
    let nodes = r.Steiner.nodes in
    let connected =
      match nodes with
      | [] -> fail "route-structure" "%s: empty node set" name
      | start :: _ ->
          let seen = Hashtbl.create 16 in
          let in_route = Hashtbl.create 16 in
          List.iter (fun e -> Hashtbl.replace in_route e ()) r.Steiner.edges;
          let rec dfs v =
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.replace seen v ();
              Graph.iter_neighbours g v (fun eid w ->
                  if Hashtbl.mem in_route eid then dfs w)
            end
          in
          dfs start;
          if List.for_all (Hashtbl.mem seen) nodes then []
          else fail "route-structure" "%s: route tree is disconnected" name
    in
    let covered =
      List.concat_map
        (fun (t : Pin_map.terminal) ->
          if List.exists (fun c -> List.mem c nodes) t.Pin_map.candidates then
            []
          else
            fail "route-structure"
              "%s: terminal at (%d,%d) has no candidate on the route" name
              (fst t.Pin_map.pos) (snd t.Pin_map.pos))
        task.Pin_map.terminals
    in
    let lb = steiner_lower_bound g task.Pin_map.terminals in
    let lb_ok =
      if r.Steiner.length >= lb then []
      else
        fail "steiner-lb" "%s: routed length %d below lower bound %d" name
          r.Steiner.length lb
    in
    length_ok @ connected @ covered @ lb_ok

let route_accounting (route : Router.result) =
  let g = route.Router.graph in
  let dens = Array.make (Graph.n_edges g) 0 in
  let total = ref 0 in
  List.iter
    (fun (rn : Router.routed_net) ->
      total := !total + rn.Router.route.Steiner.length;
      List.iter (fun e -> dens.(e) <- dens.(e) + 1) rn.Router.route.Steiner.edges)
    route.Router.routed;
  let density_ok =
    if dens = route.Router.edge_density then []
    else fail "route-accounting" "edge densities disagree with selected routes"
  in
  let overflow' =
    Array.fold_left
      (fun acc (e : Graph.edge) ->
        acc + max 0 (dens.(e.Graph.id) - e.Graph.capacity))
      0 g.Graph.edges
  in
  let overflow_ok =
    if overflow' = route.Router.overflow then []
    else
      fail "route-accounting" "overflow: router says %d, recomputed %d"
        route.Router.overflow overflow'
  in
  let monotone =
    if route.Router.overflow <= route.Router.initial_overflow then []
    else
      fail "route-accounting"
        "phase 2 worsened overflow: %d -> %d (must be monotone)"
        route.Router.initial_overflow route.Router.overflow
  in
  let length_ok =
    if !total = route.Router.total_length then []
    else
      fail "route-accounting" "total length: router says %d, routes sum to %d"
        route.Router.total_length !total
  in
  density_ok @ overflow_ok @ monotone @ length_ok

let channel_width p (route : Router.result) =
  let ts = (Placement.netlist p).Netlist.track_spacing in
  let dmax = Array.fold_left max 0 (Router.node_density route) in
  let hi = max ts ((dmax + 2) * ts / 2) in
  let exps = Twmc.Stage2.required_expansions p route in
  let bad = ref [] in
  Array.iteri
    (fun ci (l, r, b, t) ->
      List.iter
        (fun (side, e) ->
          if e < ts || e > hi then
            bad :=
              { oracle = "channel-width";
                detail =
                  Printf.sprintf
                    "cell %d %s expansion %d outside Eqn 22 band [%d, %d] \
                     (d_max %d, t_s %d)"
                    ci side e ts hi dmax ts }
              :: !bad)
        [ ("left", l); ("right", r); ("bottom", b); ("top", t) ])
    exps;
  List.rev !bad

let check_route p (route : Router.result) =
  let g = route.Router.graph in
  let tasks = Pin_map.tasks g p in
  let by_net = Hashtbl.create 64 in
  List.iter (fun (t : Pin_map.net_task) -> Hashtbl.replace by_net t.Pin_map.net t) tasks;
  let coverage =
    let seen =
      List.map (fun (rn : Router.routed_net) -> rn.Router.net) route.Router.routed
      @ route.Router.unroutable
      |> List.sort_uniq compare
    in
    let expected =
      List.map (fun (t : Pin_map.net_task) -> t.Pin_map.net) tasks
      |> List.sort_uniq compare
    in
    if seen = expected then []
    else
      fail "route-accounting"
        "routed+unroutable nets disagree with the task list (%d vs %d nets)"
        (List.length seen) (List.length expected)
  in
  let per_net =
    List.concat_map
      (fun (rn : Router.routed_net) ->
        match Hashtbl.find_opt by_net rn.Router.net with
        | Some task -> route_structure g task rn
        | None ->
            fail "route-accounting" "net %d routed but has no routing task"
              rn.Router.net)
      route.Router.routed
  in
  coverage @ per_net @ route_accounting route @ channel_width p route

let check_flow (r : Twmc.Flow.result) =
  let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
  let placement_failures = check_placement p in
  placement_failures
  @
  match r.Twmc.Flow.stage2.Twmc.Stage2.final_route with
  | Some route -> check_route p route
  | None -> []

(* ---------------------------------------------- normalization oracle *)

let eta_monotone ?eta ?(samples = 6) ~seed nl =
  let params = Params.default in
  let eta = match eta with Some e -> e | None -> params.Params.eta in
  let core = Stage1.initial_core nl in
  let p2_for eta =
    (* Fresh placement and rng per η: identical streams sample identical
       ensembles, so p₂ = η·⟨C1⟩/⟨C2⟩ is exactly proportional to η. *)
    let rng = Rng.create ~seed in
    let p =
      Placement.create ~params ~core ~expander:Placement.No_expansion ~rng nl
    in
    Stage1.normalize_p2 rng p ~eta ~samples;
    Placement.p2 p
  in
  let a = p2_for eta and b = p2_for (2.0 *. eta) in
  let monotone =
    if b +. 1e-12 >= a then []
    else fail "eta-monotone" "p2 decreased when η doubled: %.12g -> %.12g" a b
  in
  let proportional =
    (* p₂ = 1 is the sampled-overlap-was-zero sentinel; skip the ratio
       check in that regime. *)
    if a = 1.0 || b = 1.0 then []
    else if rel_close ~tol:1e-9 b (2.0 *. a) then []
    else
      fail "eta-monotone" "p2 not proportional to η: p2(η)=%.12g p2(2η)=%.12g"
        a b
  in
  monotone @ proportional

(* ------------------------------------------- constructed-optima oracle *)

(* The PEKO certificate checker (DESIGN.md §14).  The certified optimum is
   only a valid lower bound when the construction's hypotheses hold, so the
   structural oracle re-verifies them from the netlist rather than trusting
   the generator: identical single-variant square macros with every pin
   committed at the bounding-box center, and unit net weights (TEIL = C1).
   The remaining oracles check the certificate itself: the claimed optimum
   equals the re-derived per-net packing bound, and the certified placement
   is overlap-free, in-core, and actually achieves the claim. *)

module Peko_gen = Twmc_workload.Peko

let peko_structure nl (cert : Peko_gen.certificate) =
  let s = cert.Peko_gen.spec.Peko_gen.cell_side in
  let n = Netlist.n_cells nl in
  let count =
    if n <> cert.Peko_gen.spec.Peko_gen.n_cells then
      fail "peko-structure" "netlist has %d cells, spec says %d" n
        cert.Peko_gen.spec.Peko_gen.n_cells
    else if Array.length cert.Peko_gen.positions <> n then
      fail "peko-structure" "certificate carries %d positions for %d cells"
        (Array.length cert.Peko_gen.positions)
        n
    else []
  in
  let cells =
    Array.to_list nl.Netlist.cells
    |> List.concat_map (fun (c : Cell.t) ->
           let name = c.Cell.name in
           let kind =
             if c.Cell.kind <> Cell.Macro then
               fail "peko-structure" "cell %s is not a macro" name
             else if Array.length c.Cell.variants <> 1 then
               fail "peko-structure" "cell %s has %d variants" name
                 (Array.length c.Cell.variants)
             else []
           in
           let shape =
             match c.Cell.variants with
             | [||] -> []
             | vs -> (
                 match Shape.tiles vs.(0).Cell.shape with
                 | [ t ] when Rect.width t = s && Rect.height t = s -> []
                 | tiles ->
                     fail "peko-structure"
                       "cell %s is not a single %dx%d tile (%d tiles, bbox \
                        %dx%d)"
                       name s s (List.length tiles)
                       (Shape.width vs.(0).Cell.shape)
                       (Shape.height vs.(0).Cell.shape))
           in
           let pins =
             Array.to_list c.Cell.pins
             |> List.concat_map (fun (pin : Pin.t) ->
                    match pin.Pin.loc with
                    | Pin.Fixed (0, 0) -> []
                    | Pin.Fixed (x, y) ->
                        fail "peko-structure"
                          "pin %s.%s is committed at (%d,%d), not the center"
                          name pin.Pin.name x y
                    | Pin.Uncommitted _ ->
                        fail "peko-structure" "pin %s.%s is uncommitted" name
                          pin.Pin.name)
           in
           kind @ shape @ pins)
  in
  let nets =
    Array.to_list nl.Netlist.nets
    |> List.concat_map (fun (net : Net.t) ->
           let hosts =
             Array.to_list net.Net.pins
             |> List.map (fun (r : Net.pin_ref) -> r.Net.cell)
             |> List.sort_uniq Stdlib.compare
           in
           let degree =
             if List.length hosts < 2 then
               fail "peko-structure" "net %s touches fewer than 2 cells"
                 net.Net.name
             else []
           in
           let weights =
             if net.Net.hweight = 1.0 && net.Net.vweight = 1.0 then []
             else
               fail "peko-structure" "net %s has non-unit weights (%g, %g)"
                 net.Net.name net.Net.hweight net.Net.vweight
           in
           degree @ weights)
  in
  count @ cells @ nets

let peko_bound nl (cert : Peko_gen.certificate) =
  let s = cert.Peko_gen.spec.Peko_gen.cell_side in
  let bound = ref 0.0 in
  Array.iter
    (fun (net : Net.t) ->
      let hosts =
        Array.to_list net.Net.pins
        |> List.map (fun (r : Net.pin_ref) -> r.Net.cell)
        |> List.sort_uniq Stdlib.compare
      in
      let k = max 1 (List.length hosts) in
      bound := !bound +. float_of_int (Peko_gen.opt_span k * s))
    nl.Netlist.nets;
  if rel_close ~tol:1e-12 !bound cert.Peko_gen.optimal_teil then []
  else
    fail "peko-bound"
      "claimed optimum %.12g differs from re-derived packing bound %.12g"
      cert.Peko_gen.optimal_teil !bound

let peko_tiles (cert : Peko_gen.certificate) =
  let s = cert.Peko_gen.spec.Peko_gen.cell_side in
  Array.map
    (fun (cx, cy) -> Rect.of_center_dims ~cx ~cy ~w:s ~h:s)
    cert.Peko_gen.positions

let peko_in_core (cert : Peko_gen.certificate) =
  let tiles = peko_tiles cert in
  let acc = ref [] in
  Array.iteri
    (fun i t ->
      if not (Rect.contains_rect cert.Peko_gen.core t) then
        acc :=
          !acc
          @ fail "peko-in-core" "cell %d at %a sticks out of the core %a" i
              (fun () r -> Format.asprintf "%a" Rect.pp r)
              t
              (fun () r -> Format.asprintf "%a" Rect.pp r)
              cert.Peko_gen.core)
    tiles;
  !acc

let peko_overlap_free (cert : Peko_gen.certificate) =
  let tiles = peko_tiles cert in
  let n = Array.length tiles in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = Rect.inter_area tiles.(i) tiles.(j) in
      if a > 0 then
        acc :=
          !acc
          @ fail "peko-overlap-free" "cells %d and %d overlap by area %d" i j a
    done
  done;
  !acc

let peko_achieves nl (cert : Peko_gen.certificate) =
  (* TEIL of the certified placement, net by net from the certified cell
     centers (every pin sits exactly at its cell's center). *)
  let teil = ref 0.0 in
  Array.iter
    (fun (net : Net.t) ->
      let minx = ref max_int and maxx = ref min_int in
      let miny = ref max_int and maxy = ref min_int in
      Array.iter
        (fun (r : Net.pin_ref) ->
          let x, y = cert.Peko_gen.positions.(r.Net.cell) in
          if x < !minx then minx := x;
          if x > !maxx then maxx := x;
          if y < !miny then miny := y;
          if y > !maxy then maxy := y)
        net.Net.pins;
      teil := !teil +. float_of_int (!maxx - !minx + (!maxy - !miny)))
    nl.Netlist.nets;
  if rel_close ~tol:1e-12 !teil cert.Peko_gen.optimal_teil then []
  else
    fail "peko-achieves"
      "certified placement achieves TEIL %.12g, certificate claims %.12g"
      !teil cert.Peko_gen.optimal_teil

let check_certificate nl cert =
  let structure = peko_structure nl cert in
  (* The remaining oracles presuppose the structure (positions array sized
     to the netlist in particular); skip them on a structural failure. *)
  if structure <> [] then structure
  else
    peko_bound nl cert @ peko_in_core cert @ peko_overlap_free cert
    @ peko_achieves nl cert
