open Twmc_geometry
open Twmc_netlist

type expander =
  | No_expansion
  | Dynamic of Twmc_estimator.Dynamic_area.t
  | Static of (int * int * int * int) array

type cell_state = {
  mutable x : int;
  mutable y : int;
  mutable orient : Orient.t;
  mutable variant : int;
  mutable sites : int array;
  mutable abs_tiles : Rect.t list;
  mutable exp_tiles : Rect.t list;
  mutable pin_pos : (int * int) array;
  mutable bbox : Rect.t;
  mutable occ : int array;
  (* occupancy of the current variant's sites *)
}

type t = {
  nl : Netlist.t;
  prm : Params.t;
  mutable core : Rect.t;
  mutable expander : expander;
  cells : cell_state array;
  net_c1 : float array;
  net_len : float array;
  (* Exact per-net span extremes with support counts: how many pin refs sit
     on each extreme.  A moved pin only forces a net rescan when it was the
     sole support of a boundary it left. *)
  net_minx : int array;
  net_maxx : int array;
  net_miny : int array;
  net_maxy : int array;
  net_cminx : int array;
  net_cmaxx : int array;
  net_cminy : int array;
  net_cmaxy : int array;
  (* nets_of_cell as arrays (same order as the list — the C1/TEIL float
     accumulator chains depend on it), plus the pin refs of each cell on
     each of its nets (with multiplicity, matching the rescan counting). *)
  cell_nets : int array array;
  cell_net_pins : int array array array;
  cell_c3 : float array;
  (* Placement constraints (netlist order) and their cached integer-valued
     penalties; [cons_of_cell.(ci)] lists the constraint slots that must
     re-evaluate when cell [ci]'s geometry changes (ascending order — the
     C4 accumulator chain depends on it). *)
  cons : Constr.t array;
  cpen : float array;
  cons_of_cell : int array array;
  mutable c1v : float;
  mutable c2v : float;
  mutable c3v : float;
  mutable c4v : float;
  mutable teilv : float;
  mutable p2v : float;
  (* Spatial index of expanded-tile bboxes, keyed by cell index; kept in
     sync with [cell_state.bbox] and rebuilt by [recompute_all]. *)
  mutable idx : Spatial.t;
  (* Scratch: pre-move pin positions of the cell being mutated. *)
  old_pp : (int * int) array;
  (* Scratch for [delta_cost]: per-net simulated C1, valid when the stamp
     matches the current simulation pass. *)
  sim_net_c1 : float array;
  sim_net_stamp : int array;
  (* Same device for simulated constraint penalties. *)
  sim_cpen : float array;
  sim_cpen_stamp : int array;
  mutable sim_stamp : int;
  (* Lazy caches of orientation-transformed geometry, keyed
     [cell][variant][orient]. *)
  tiles_cache : Rect.t list option array array array;
  sites_cache : (int * int) array option array array array;
  fixed_cache : (int * int) array option array array;  (* [cell][orient] *)
}

let netlist t = t.nl
let params t = t.prm
let core t = t.core

(* ------------------------------------------------------------------ *)
(* Geometry caches                                                     *)

let cached_tiles t ci vi o =
  let oi = Orient.to_int o in
  match t.tiles_cache.(ci).(vi).(oi) with
  | Some tiles -> tiles
  | None ->
      let shape = (Cell.variant t.nl.Netlist.cells.(ci) vi).Cell.shape in
      let tiles = Shape.tiles (Shape.transform o shape) in
      t.tiles_cache.(ci).(vi).(oi) <- Some tiles;
      tiles

let cached_sites t ci vi o =
  let oi = Orient.to_int o in
  match t.sites_cache.(ci).(vi).(oi) with
  | Some a -> a
  | None ->
      let v = Cell.variant t.nl.Netlist.cells.(ci) vi in
      let a =
        Array.map
          (fun (s : Pin_site.t) -> Orient.apply o (s.Pin_site.x, s.Pin_site.y))
          v.Cell.sites
      in
      t.sites_cache.(ci).(vi).(oi) <- Some a;
      a

let cached_fixed t ci o =
  let oi = Orient.to_int o in
  match t.fixed_cache.(ci).(oi) with
  | Some a -> a
  | None ->
      let c = t.nl.Netlist.cells.(ci) in
      let a =
        Array.map
          (fun (p : Pin.t) ->
            match p.Pin.loc with
            | Pin.Fixed (x, y) -> Orient.apply o (x, y)
            | Pin.Uncommitted _ -> (0, 0))
          c.Cell.pins
      in
      t.fixed_cache.(ci).(oi) <- Some a;
      a

(* ------------------------------------------------------------------ *)
(* Tile expansion                                                      *)

let expand_tile t ci vi (r : Rect.t) =
  match t.expander with
  | No_expansion -> r
  | Dynamic est ->
      (* The modulation functions live in core-centered coordinates. *)
      let ccx, ccy = Rect.center t.core in
      let shifted = Rect.translate r ~dx:(-ccx) ~dy:(-ccy) in
      let left, right, bottom, top =
        Twmc_estimator.Dynamic_area.tile_expansions est ~cell:ci ~variant:vi
          shifted
      in
      Rect.expand r ~left ~right ~bottom ~top
  | Static exps ->
      let left, right, bottom, top = exps.(ci) in
      Rect.expand r ~left ~right ~bottom ~top

(* ------------------------------------------------------------------ *)
(* Spatial index                                                       *)

let make_index t =
  let n = Array.length t.cells in
  let g =
    max 4 (min 64 (2 * int_of_float (ceil (sqrt (float_of_int (max 1 n))))))
  in
  let extent = max (Rect.width t.core) (Rect.height t.core) in
  Spatial.create ~world:t.core ~cell_size:(max 1 ((extent + g - 1) / g))

(* ------------------------------------------------------------------ *)
(* Per-cell cache refresh                                              *)

let refresh_cell t ci =
  let cs = t.cells.(ci) in
  let c = t.nl.Netlist.cells.(ci) in
  let tiles0 = cached_tiles t ci cs.variant cs.orient in
  cs.abs_tiles <- List.map (fun r -> Rect.translate r ~dx:cs.x ~dy:cs.y) tiles0;
  cs.exp_tiles <- List.map (expand_tile t ci cs.variant) cs.abs_tiles;
  cs.bbox <-
    (match cs.exp_tiles with
    | [] -> Rect.empty
    | r :: rest -> List.fold_left Rect.hull r rest);
  if Spatial.mem t.idx ci then Spatial.update t.idx ci cs.bbox
  else Spatial.insert t.idx ci cs.bbox;
  let fixed = cached_fixed t ci cs.orient in
  let site_pos = cached_sites t ci cs.variant cs.orient in
  Array.iteri
    (fun p (pin : Pin.t) ->
      let lx, ly =
        match pin.Pin.loc with
        | Pin.Fixed _ -> fixed.(p)
        | Pin.Uncommitted _ -> site_pos.(cs.sites.(p))
      in
      cs.pin_pos.(p) <- (cs.x + lx, cs.y + ly))
    c.Cell.pins

(* ------------------------------------------------------------------ *)
(* Net spans                                                           *)

(* Full rescan of one net: extremes and their support counts in one pass
   over the pin refs.  This is the fallback when an incremental update
   cannot prove the surviving support of a boundary. *)
let rescan_net_span t n =
  let net = t.nl.Netlist.nets.(n) in
  let minx = ref max_int and maxx = ref min_int in
  let miny = ref max_int and maxy = ref min_int in
  let cminx = ref 0 and cmaxx = ref 0 and cminy = ref 0 and cmaxy = ref 0 in
  Array.iter
    (fun (r : Net.pin_ref) ->
      let x, y = t.cells.(r.Net.cell).pin_pos.(r.Net.pin) in
      if x < !minx then begin minx := x; cminx := 1 end
      else if x = !minx then incr cminx;
      if x > !maxx then begin maxx := x; cmaxx := 1 end
      else if x = !maxx then incr cmaxx;
      if y < !miny then begin miny := y; cminy := 1 end
      else if y = !miny then incr cminy;
      if y > !maxy then begin maxy := y; cmaxy := 1 end
      else if y = !maxy then incr cmaxy)
    net.Net.pins;
  t.net_minx.(n) <- !minx;
  t.net_maxx.(n) <- !maxx;
  t.net_miny.(n) <- !miny;
  t.net_maxy.(n) <- !maxy;
  t.net_cminx.(n) <- !cminx;
  t.net_cmaxx.(n) <- !cmaxx;
  t.net_cminy.(n) <- !cminy;
  t.net_cmaxy.(n) <- !cmaxy

(* C1/TEIL contribution of a net from its cached extremes — the exact same
   float expression [net_contrib] used on the freshly scanned extremes, so
   the incremental path is bit-identical. *)
let net_cost_of_span t n =
  let net = t.nl.Netlist.nets.(n) in
  let dx = float_of_int (t.net_maxx.(n) - t.net_minx.(n))
  and dy = float_of_int (t.net_maxy.(n) - t.net_miny.(n)) in
  ((dx *. net.Net.hweight) +. (dy *. net.Net.vweight), dx +. dy)

(* Incremental update of one min-extreme axis after the pins [pins] of one
   cell moved from [old_pp] to [new_pp].  Returns [false] when the old
   extreme lost all its support and no moved pin re-establishes it — the
   caller must rescan the net. *)
let update_min_axis ext cnt n pins old_pp new_pp ~use_x =
  let e = ext.(n) in
  let removed = ref 0 and bestnew = ref max_int and bestcnt = ref 0 in
  Array.iter
    (fun p ->
      let ox, oy = old_pp.(p) in
      if (if use_x then ox else oy) = e then incr removed;
      let nx, ny = new_pp.(p) in
      let v = if use_x then nx else ny in
      if v < !bestnew then begin bestnew := v; bestcnt := 1 end
      else if v = !bestnew then incr bestcnt)
    pins;
  let rem = cnt.(n) - !removed in
  if !bestnew < e then begin
    ext.(n) <- !bestnew;
    cnt.(n) <- !bestcnt;
    true
  end
  else if !bestnew = e then begin cnt.(n) <- rem + !bestcnt; true end
  else if rem > 0 then begin cnt.(n) <- rem; true end
  else false

let update_max_axis ext cnt n pins old_pp new_pp ~use_x =
  let e = ext.(n) in
  let removed = ref 0 and bestnew = ref min_int and bestcnt = ref 0 in
  Array.iter
    (fun p ->
      let ox, oy = old_pp.(p) in
      if (if use_x then ox else oy) = e then incr removed;
      let nx, ny = new_pp.(p) in
      let v = if use_x then nx else ny in
      if v > !bestnew then begin bestnew := v; bestcnt := 1 end
      else if v = !bestnew then incr bestcnt)
    pins;
  let rem = cnt.(n) - !removed in
  if !bestnew > e then begin
    ext.(n) <- !bestnew;
    cnt.(n) <- !bestcnt;
    true
  end
  else if !bestnew = e then begin cnt.(n) <- rem + !bestcnt; true end
  else if rem > 0 then begin cnt.(n) <- rem; true end
  else false

(* Update the cached span of net [n] (the [k]-th net of cell [ci]) after
   [ci]'s pins moved from [t.old_pp] to their current positions. *)
let update_net_span t ci k n =
  let pins = t.cell_net_pins.(ci).(k) in
  let np = t.cells.(ci).pin_pos and op = t.old_pp in
  let ok =
    update_min_axis t.net_minx t.net_cminx n pins op np ~use_x:true
    && update_max_axis t.net_maxx t.net_cmaxx n pins op np ~use_x:true
    && update_min_axis t.net_miny t.net_cminy n pins op np ~use_x:false
    && update_max_axis t.net_maxy t.net_cmaxy n pins op np ~use_x:false
  in
  if not ok then rescan_net_span t n

(* ------------------------------------------------------------------ *)
(* Cost terms                                                          *)

let tiles_overlap tiles_a tiles_b total =
  List.iter
    (fun ra ->
      List.iter (fun rb -> total := !total + Rect.inter_area ra rb) tiles_b)
    tiles_a

(* Overlap of cell [ci]'s expanded tiles against every other cell and the
   core-boundary dummies (footnote 16: area outside the core is overlap).
   Only the index's candidate neighbors are visited; the total is an exact
   integer sum, so any enumeration of a superset of the overlapping pairs
   yields the identical float. *)
let cell_overlap t ci =
  let cs = t.cells.(ci) in
  let total = ref 0 in
  List.iter
    (fun r -> total := !total + (Rect.area r - Rect.inter_area r t.core))
    cs.exp_tiles;
  Spatial.iter_query t.idx cs.bbox (fun cj ->
      if cj <> ci then begin
        let other = t.cells.(cj) in
        if Rect.overlaps cs.bbox other.bbox then
          tiles_overlap cs.exp_tiles other.exp_tiles total
      end);
  float_of_int !total

(* The pre-index full scan, kept as the benchmark and differential-test
   reference. *)
let cell_overlap_scan t ci =
  let cs = t.cells.(ci) in
  let total = ref 0 in
  List.iter
    (fun r -> total := !total + (Rect.area r - Rect.inter_area r t.core))
    cs.exp_tiles;
  Array.iteri
    (fun cj other ->
      if cj <> ci && Rect.overlaps cs.bbox other.bbox then
        tiles_overlap cs.exp_tiles other.exp_tiles total)
    t.cells;
  float_of_int !total

let occupancy_of t ci ~variant ~sites =
  let c = t.nl.Netlist.cells.(ci) in
  let v = Cell.variant c variant in
  let occ = Array.make (Array.length v.Cell.sites) 0 in
  Array.iteri
    (fun p (pin : Pin.t) ->
      match pin.Pin.loc with
      | Pin.Uncommitted _ -> occ.(sites.(p)) <- occ.(sites.(p)) + 1
      | Pin.Fixed _ -> ())
    c.Cell.pins;
  occ

let c3_of_occ t ci ~variant occ =
  let c = t.nl.Netlist.cells.(ci) in
  let v = Cell.variant c variant in
  let kappa = t.prm.Params.kappa in
  let total = ref 0.0 in
  Array.iteri
    (fun s n ->
      let cap = v.Cell.sites.(s).Pin_site.capacity in
      if n > cap then
        let e = float_of_int (n - cap + kappa) in
        total := !total +. (e *. e))
    occ;
  !total

let refresh_occupancy t ci =
  let cs = t.cells.(ci) in
  cs.occ <- occupancy_of t ci ~variant:cs.variant ~sites:cs.sites;
  let old = t.cell_c3.(ci) in
  let v = c3_of_occ t ci ~variant:cs.variant cs.occ in
  t.cell_c3.(ci) <- v;
  t.c3v <- t.c3v -. old +. v

(* ------------------------------------------------------------------ *)
(* Constraint penalties (C4)                                           *)

(* Whole-constraint evaluation against the committed state.  [Constr.eval]
   returns an exact integer, so the float accumulator chains built on it
   cancel exactly across the apply, delta and recompute paths. *)
let eval_constraint t k =
  float_of_int
    (Constr.eval ~n_cells:(Array.length t.cells)
       ~tiles:(fun ci -> t.cells.(ci).abs_tiles)
       ~pos:(fun ci -> (t.cells.(ci).x, t.cells.(ci).y))
       ~core:t.core t.cons.(k))

(* ------------------------------------------------------------------ *)
(* Full recomputation                                                  *)

let recompute_all t =
  t.idx <- make_index t;
  Array.iteri (fun ci _ -> refresh_cell t ci) t.cells;
  t.c1v <- 0.0;
  t.teilv <- 0.0;
  Array.iteri
    (fun n _ ->
      rescan_net_span t n;
      let c1, len = net_cost_of_span t n in
      t.net_c1.(n) <- c1;
      t.net_len.(n) <- len;
      t.c1v <- t.c1v +. c1;
      t.teilv <- t.teilv +. len)
    t.nl.Netlist.nets;
  t.c3v <- 0.0;
  Array.iteri
    (fun ci cs ->
      cs.occ <- occupancy_of t ci ~variant:cs.variant ~sites:cs.sites;
      t.cell_c3.(ci) <- c3_of_occ t ci ~variant:cs.variant cs.occ;
      t.c3v <- t.c3v +. t.cell_c3.(ci))
    t.cells;
  (* Each unordered pair counted once; cell_overlap counts both directions,
     and the boundary term once per cell.  Deliberately the full O(n^2)
     scan, independent of the index: this is the drift oracle the
     incremental path is checked against. *)
  let pairwise = ref 0.0 and boundary = ref 0.0 in
  Array.iteri
    (fun ci cs ->
      List.iter
        (fun r ->
          boundary :=
            !boundary +. float_of_int (Rect.area r - Rect.inter_area r t.core))
        cs.exp_tiles;
      Array.iteri
        (fun cj other ->
          if cj > ci && Rect.overlaps cs.bbox other.bbox then
            List.iter
              (fun ra ->
                List.iter
                  (fun rb ->
                    pairwise := !pairwise +. float_of_int (Rect.inter_area ra rb))
                  other.exp_tiles)
              cs.exp_tiles)
        t.cells)
    t.cells;
  t.c2v <- !pairwise +. !boundary;
  t.c4v <- 0.0;
  Array.iteri
    (fun k _ ->
      let v = eval_constraint t k in
      t.cpen.(k) <- v;
      t.c4v <- t.c4v +. v)
    t.cons

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ~params ~core ~expander ~rng (nl : Netlist.t) =
  if Rect.is_empty core then invalid_arg "Placement.create: empty core";
  let n = Netlist.n_cells nl in
  let cells =
    Array.init n (fun ci ->
        let c = nl.Netlist.cells.(ci) in
        { x = Twmc_sa.Rng.int_incl rng core.Rect.x0 core.Rect.x1;
          y = Twmc_sa.Rng.int_incl rng core.Rect.y0 core.Rect.y1;
          orient = Orient.R0;
          variant = 0;
          sites = Sites.random_assignment rng c ~variant:0;
          abs_tiles = [];
          exp_tiles = [];
          pin_pos = Array.make (Cell.n_pins c) (0, 0);
          bbox = Rect.empty;
          occ = [||] })
  in
  (* Preplaced macros start at their target, overriding the random draw
     (the draw still happens, keeping RNG consumption uniform per cell). *)
  Array.iter
    (function
      | Constr.Fixed { cell; x; y } ->
          cells.(cell).x <- x;
          cells.(cell).y <- y
      | _ -> ())
    nl.Netlist.constraints;
  let cons = nl.Netlist.constraints in
  let cons_of_cell =
    Array.init n (fun ci ->
        let acc = ref [] in
        Array.iteri
          (fun k c ->
            let touches =
              match Constr.scope c with
              | None -> true
              | Some cells -> List.mem ci cells
            in
            if touches then acc := k :: !acc)
          cons;
        Array.of_list (List.rev !acc))
  in
  let n_nets = Netlist.n_nets nl in
  let cell_nets = Array.map Array.of_list nl.Netlist.nets_of_cell in
  let cell_net_pins =
    Array.init n (fun ci ->
        Array.map
          (fun nidx ->
            let net = nl.Netlist.nets.(nidx) in
            let acc = ref [] in
            Array.iter
              (fun (r : Net.pin_ref) ->
                if r.Net.cell = ci then acc := r.Net.pin :: !acc)
              net.Net.pins;
            Array.of_list (List.rev !acc))
          cell_nets.(ci))
  in
  let max_pins =
    Array.fold_left (fun acc c -> max acc (Cell.n_pins c)) 0 nl.Netlist.cells
  in
  let t =
    { nl;
      prm = params;
      core;
      expander;
      cells;
      net_c1 = Array.make n_nets 0.0;
      net_len = Array.make n_nets 0.0;
      net_minx = Array.make n_nets 0;
      net_maxx = Array.make n_nets 0;
      net_miny = Array.make n_nets 0;
      net_maxy = Array.make n_nets 0;
      net_cminx = Array.make n_nets 0;
      net_cmaxx = Array.make n_nets 0;
      net_cminy = Array.make n_nets 0;
      net_cmaxy = Array.make n_nets 0;
      cell_nets;
      cell_net_pins;
      cell_c3 = Array.make n 0.0;
      cons;
      cpen = Array.make (Array.length cons) 0.0;
      cons_of_cell;
      c1v = 0.0;
      c2v = 0.0;
      c3v = 0.0;
      c4v = 0.0;
      teilv = 0.0;
      p2v = 1.0;
      (* Placeholder one-bin index; [recompute_all] installs the real one. *)
      idx =
        Spatial.create ~world:core
          ~cell_size:(max 1 (max (Rect.width core) (Rect.height core)));
      old_pp = Array.make max_pins (0, 0);
      sim_net_c1 = Array.make n_nets 0.0;
      sim_net_stamp = Array.make n_nets 0;
      sim_cpen = Array.make (Array.length cons) 0.0;
      sim_cpen_stamp = Array.make (Array.length cons) 0;
      sim_stamp = 0;
      tiles_cache =
        Array.init n (fun ci ->
            Array.init (Cell.n_variants nl.Netlist.cells.(ci)) (fun _ ->
                Array.make 8 None));
      sites_cache =
        Array.init n (fun ci ->
            Array.init (Cell.n_variants nl.Netlist.cells.(ci)) (fun _ ->
                Array.make 8 None));
      fixed_cache = Array.init n (fun _ -> Array.make 8 None) }
  in
  recompute_all t;
  t

let expander t = t.expander

let set_expander t e =
  t.expander <- e;
  recompute_all t

let set_core t core =
  if Rect.is_empty core then invalid_arg "Placement.set_core: empty core";
  t.core <- core;
  recompute_all t

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let cell_pos t ci = (t.cells.(ci).x, t.cells.(ci).y)
let cell_orient t ci = t.cells.(ci).orient
let cell_variant t ci = t.cells.(ci).variant
let site_of_pin t ~cell ~pin = t.cells.(cell).sites.(pin)
let pin_position t ~cell ~pin = t.cells.(cell).pin_pos.(pin)
let abs_tiles t ci = t.cells.(ci).abs_tiles
let expanded_tiles t ci = t.cells.(ci).exp_tiles

let expanded_area t =
  Array.fold_left
    (fun acc cs ->
      List.fold_left (fun acc r -> acc + Rect.area r) acc cs.exp_tiles)
    0 t.cells

let c1 t = t.c1v
let c2_raw t = t.c2v
let c3 t = t.c3v
let c4 t = t.c4v
let p2 t = t.p2v
let set_p2 t v = t.p2v <- v
let teil t = t.teilv
let n_constraints t = Array.length t.cons
let constraints t = t.cons
let constraint_penalty t k = t.cpen.(k)

(* The unconstrained expression is kept verbatim so netlists without
   constraints produce bit-identical costs (and trajectories) to the
   pre-constraint engine. *)
let total_cost t =
  let base = t.c1v +. (t.p2v *. t.c2v) +. (t.prm.Params.p3 *. t.c3v) in
  if Array.length t.cons = 0 then base
  else base +. (t.prm.Params.p4 *. t.c4v)

let chip_bbox t =
  Array.fold_left
    (fun acc cs -> List.fold_left Rect.hull acc cs.exp_tiles)
    Rect.empty t.cells

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)

let update_nets_of_cell t ci =
  Array.iteri
    (fun k n ->
      update_net_span t ci k n;
      let c1', len' = net_cost_of_span t n in
      t.c1v <- t.c1v -. t.net_c1.(n) +. c1';
      t.teilv <- t.teilv -. t.net_len.(n) +. len';
      t.net_c1.(n) <- c1';
      t.net_len.(n) <- len')
    t.cell_nets.(ci)

let set_cell_sites t ci sites =
  let cs = t.cells.(ci) in
  let c = t.nl.Netlist.cells.(ci) in
  Array.blit cs.pin_pos 0 t.old_pp 0 (Array.length cs.pin_pos);
  cs.sites <- sites;
  let site_pos = cached_sites t ci cs.variant cs.orient in
  Array.iteri
    (fun p (pin : Pin.t) ->
      match pin.Pin.loc with
      | Pin.Uncommitted _ ->
          let lx, ly = site_pos.(cs.sites.(p)) in
          cs.pin_pos.(p) <- (cs.x + lx, cs.y + ly)
      | Pin.Fixed _ -> ())
    c.Cell.pins;
  update_nets_of_cell t ci;
  refresh_occupancy t ci

(* Clamp a site assignment into [variant]'s site array, honouring edge
   restrictions; mutates [sites] in place. *)
let reclamp_sites c ~variant sites =
  let n_sites = Array.length (Cell.variant c variant).Cell.sites in
  Array.iteri
    (fun p s ->
      if s >= 0 then begin
        let s = if s < n_sites then s else s mod max 1 n_sites in
        let allowed = Cell.allowed_sites c ~variant p in
        sites.(p) <-
          (if List.mem s allowed then s
           else
             match allowed with
             | [] ->
                 invalid_arg
                   "Placement.set_cell: pin has no allowed site in new \
                    variant"
             | a :: _ -> a)
      end)
    sites

let set_cell t ci ?x ?y ?orient ?variant ?sites () =
  match (x, y, orient, variant, sites) with
  | None, None, None, None, Some s ->
      (* Pin sites only, geometry untouched: C2 cannot change.  Safe for
         bit-identity because the overlap totals are integer-valued floats,
         so the skipped [c2v -. ov +. ov] chain is exact. *)
      set_cell_sites t ci s
  | _ ->
      let cs = t.cells.(ci) in
      let ov_old = cell_overlap t ci in
      Array.blit cs.pin_pos 0 t.old_pp 0 (Array.length cs.pin_pos);
      let variant_changed =
        match variant with Some v -> v <> cs.variant | None -> false
      in
      (match x with Some v -> cs.x <- v | None -> ());
      (match y with Some v -> cs.y <- v | None -> ());
      (match orient with Some v -> cs.orient <- v | None -> ());
      (match variant with Some v -> cs.variant <- v | None -> ());
      (match sites with
      | Some s -> cs.sites <- s
      | None ->
          if variant_changed then
            reclamp_sites t.nl.Netlist.cells.(ci) ~variant:cs.variant cs.sites);
      refresh_cell t ci;
      update_nets_of_cell t ci;
      let ov_new = cell_overlap t ci in
      t.c2v <- t.c2v -. ov_old +. ov_new;
      if variant_changed || sites <> None then refresh_occupancy t ci;
      Array.iter
        (fun k ->
          let v = eval_constraint t k in
          t.c4v <- t.c4v -. t.cpen.(k) +. v;
          t.cpen.(k) <- v)
        t.cons_of_cell.(ci)

(* ------------------------------------------------------------------ *)
(* Evaluate-without-apply                                              *)

type move =
  | Cell_move of {
      ci : int;
      x : int option;
      y : int option;
      orient : Orient.t option;
      variant : int option;
      sites : int array option;
    }
  | Sites_move of { ci : int; sites : int array }

(* Simulated state of a cell touched by pending moves. *)
type sim_cell = {
  m_ci : int;
  m_x : int;
  m_y : int;
  m_orient : Orient.t;
  m_variant : int;
  m_sites : int array;
  m_pp : (int * int) array;
  m_abs : Rect.t list;
  m_exp : Rect.t list;
  m_bbox : Rect.t;
  mutable m_c3 : float;
}

(* Computes exactly the float that [apply_move]-ing every move and then
   subtracting the prior [total_cost] would produce — same accumulator
   chains in the same order on the same operands — without mutating the
   placement.  Keeping the delta bit-identical keeps the Metropolis RNG
   consumption, and therefore whole trajectories, identical to the
   mutate-and-restore path this replaces. *)
let delta_cost t moves =
  t.sim_stamp <- t.sim_stamp + 1;
  let stamp = t.sim_stamp in
  let pending = ref [] in
  let find_pending ci = List.find_opt (fun pc -> pc.m_ci = ci) !pending in
  let install pc =
    pending := pc :: List.filter (fun q -> q.m_ci <> pc.m_ci) !pending
  in
  let eff_pp cell =
    match find_pending cell with
    | Some pc -> pc.m_pp
    | None -> t.cells.(cell).pin_pos
  in
  let eff_net_c1 n =
    if t.sim_net_stamp.(n) = stamp then t.sim_net_c1.(n) else t.net_c1.(n)
  in
  let tot0 = total_cost t in
  let c1acc = ref t.c1v and c2acc = ref t.c2v and c3acc = ref t.c3v in
  let c4acc = ref t.c4v in
  (* Effective constraint evaluation over pending-aware views, mirroring
     the per-constraint chain [set_cell] runs on its committed caches. *)
  let eff_cpen k =
    if t.sim_cpen_stamp.(k) = stamp then t.sim_cpen.(k) else t.cpen.(k)
  in
  let sim_eval_constraint k =
    float_of_int
      (Constr.eval ~n_cells:(Array.length t.cells)
         ~tiles:(fun ci ->
           match find_pending ci with
           | Some pc -> pc.m_abs
           | None -> t.cells.(ci).abs_tiles)
         ~pos:(fun ci ->
           match find_pending ci with
           | Some pc -> (pc.m_x, pc.m_y)
           | None -> (t.cells.(ci).x, t.cells.(ci).y))
         ~core:t.core t.cons.(k))
  in
  (* Rescan of one net over effective pin positions.  Extremes are exact
     ints, so a rescan and the incremental update of the apply path agree
     bit-for-bit. *)
  let sim_net_cost n =
    let net = t.nl.Netlist.nets.(n) in
    let minx = ref max_int and maxx = ref min_int in
    let miny = ref max_int and maxy = ref min_int in
    Array.iter
      (fun (r : Net.pin_ref) ->
        let x, y = (eff_pp r.Net.cell).(r.Net.pin) in
        if x < !minx then minx := x;
        if x > !maxx then maxx := x;
        if y < !miny then miny := y;
        if y > !maxy then maxy := y)
      net.Net.pins;
    let dx = float_of_int (!maxx - !minx) and dy = float_of_int (!maxy - !miny) in
    (dx *. net.Net.hweight) +. (dy *. net.Net.vweight)
  in
  let sim_update_nets ci =
    Array.iter
      (fun n ->
        let c1' = sim_net_cost n in
        c1acc := !c1acc -. eff_net_c1 n +. c1';
        t.sim_net_c1.(n) <- c1';
        t.sim_net_stamp.(n) <- stamp)
      t.cell_nets.(ci)
  in
  (* Overlap of an effective tile set: index candidates carry the committed
     geometry, so pending cells are skipped there and added back with their
     simulated geometry.  Integer sum — enumeration order is irrelevant. *)
  let sim_overlap ci ~exp ~bbox =
    let total = ref 0 in
    List.iter
      (fun r -> total := !total + (Rect.area r - Rect.inter_area r t.core))
      exp;
    Spatial.iter_query t.idx bbox (fun cj ->
        if
          cj <> ci
          && (match find_pending cj with None -> true | Some _ -> false)
        then begin
          let other = t.cells.(cj) in
          if Rect.overlaps bbox other.bbox then
            tiles_overlap exp other.exp_tiles total
        end);
    List.iter
      (fun pc ->
        if pc.m_ci <> ci && Rect.overlaps bbox pc.m_bbox then
          tiles_overlap exp pc.m_exp total)
      !pending;
    float_of_int !total
  in
  let eff_view ci =
    match find_pending ci with
    | Some pc ->
        ( pc.m_x, pc.m_y, pc.m_orient, pc.m_variant, pc.m_sites, pc.m_abs,
          pc.m_exp, pc.m_bbox, pc.m_c3 )
    | None ->
        let cs = t.cells.(ci) in
        ( cs.x, cs.y, cs.orient, cs.variant, cs.sites, cs.abs_tiles,
          cs.exp_tiles, cs.bbox, t.cell_c3.(ci) )
  in
  (* Mirrors [set_cell_sites]. *)
  let sim_sites_move ci sites =
    let ex, ey, eorient, evariant, _, eabs, eexp, ebbox, ec3 = eff_view ci in
    let c = t.nl.Netlist.cells.(ci) in
    let pp = Array.copy (eff_pp ci) in
    let site_pos = cached_sites t ci evariant eorient in
    Array.iteri
      (fun p (pin : Pin.t) ->
        match pin.Pin.loc with
        | Pin.Uncommitted _ ->
            let lx, ly = site_pos.(sites.(p)) in
            pp.(p) <- (ex + lx, ey + ly)
        | Pin.Fixed _ -> ())
      c.Cell.pins;
    let pc =
      { m_ci = ci; m_x = ex; m_y = ey; m_orient = eorient;
        m_variant = evariant; m_sites = sites; m_pp = pp; m_abs = eabs;
        m_exp = eexp; m_bbox = ebbox; m_c3 = ec3 }
    in
    install pc;
    sim_update_nets ci;
    let occ = occupancy_of t ci ~variant:evariant ~sites in
    let c3' = c3_of_occ t ci ~variant:evariant occ in
    c3acc := !c3acc -. ec3 +. c3';
    pc.m_c3 <- c3'
  in
  (* Mirrors [set_cell], including its sites-only routing. *)
  let sim_cell_move ci ~x ~y ~orient ~variant ~sites =
    match (x, y, orient, variant, sites) with
    | None, None, None, None, Some s -> sim_sites_move ci s
    | _ ->
        let ex, ey, eorient, evariant, esites, _, eexp, ebbox, ec3 =
          eff_view ci
        in
        let ov_old = sim_overlap ci ~exp:eexp ~bbox:ebbox in
        let variant_changed =
          match variant with Some v -> v <> evariant | None -> false
        in
        let nx = match x with Some v -> v | None -> ex in
        let ny = match y with Some v -> v | None -> ey in
        let norient = match orient with Some v -> v | None -> eorient in
        let nvariant = match variant with Some v -> v | None -> evariant in
        let nsites =
          match sites with
          | Some s -> s
          | None ->
              if variant_changed then begin
                let s = Array.copy esites in
                reclamp_sites t.nl.Netlist.cells.(ci) ~variant:nvariant s;
                s
              end
              else esites
        in
        (* Candidate geometry — mirrors [refresh_cell]. *)
        let c = t.nl.Netlist.cells.(ci) in
        let tiles0 = cached_tiles t ci nvariant norient in
        let abs = List.map (fun r -> Rect.translate r ~dx:nx ~dy:ny) tiles0 in
        let exp = List.map (expand_tile t ci nvariant) abs in
        let bbox =
          match exp with
          | [] -> Rect.empty
          | r :: rest -> List.fold_left Rect.hull r rest
        in
        let fixed = cached_fixed t ci norient in
        let site_pos = cached_sites t ci nvariant norient in
        let pp = Array.make (Cell.n_pins c) (0, 0) in
        Array.iteri
          (fun p (pin : Pin.t) ->
            let lx, ly =
              match pin.Pin.loc with
              | Pin.Fixed _ -> fixed.(p)
              | Pin.Uncommitted _ -> site_pos.(nsites.(p))
            in
            pp.(p) <- (nx + lx, ny + ly))
          c.Cell.pins;
        let pc =
          { m_ci = ci; m_x = nx; m_y = ny; m_orient = norient;
            m_variant = nvariant; m_sites = nsites; m_pp = pp; m_abs = abs;
            m_exp = exp; m_bbox = bbox; m_c3 = ec3 }
        in
        install pc;
        sim_update_nets ci;
        let ov_new = sim_overlap ci ~exp ~bbox in
        c2acc := !c2acc -. ov_old +. ov_new;
        if variant_changed || sites <> None then begin
          let occ = occupancy_of t ci ~variant:nvariant ~sites:nsites in
          let c3' = c3_of_occ t ci ~variant:nvariant occ in
          c3acc := !c3acc -. ec3 +. c3';
          pc.m_c3 <- c3'
        end;
        Array.iter
          (fun k ->
            let v = sim_eval_constraint k in
            c4acc := !c4acc -. eff_cpen k +. v;
            t.sim_cpen.(k) <- v;
            t.sim_cpen_stamp.(k) <- stamp)
          t.cons_of_cell.(ci)
  in
  List.iter
    (function
      | Cell_move { ci; x; y; orient; variant; sites } ->
          sim_cell_move ci ~x ~y ~orient ~variant ~sites
      | Sites_move { ci; sites } -> sim_sites_move ci sites)
    moves;
  let base = !c1acc +. (t.p2v *. !c2acc) +. (t.prm.Params.p3 *. !c3acc) in
  (if Array.length t.cons = 0 then base
   else base +. (t.prm.Params.p4 *. !c4acc))
  -. tot0

let apply_move t = function
  | Cell_move { ci; x; y; orient; variant; sites } ->
      set_cell t ci ?x ?y ?orient ?variant ?sites ()
  | Sites_move { ci; sites } -> set_cell_sites t ci sites

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type net_state = {
  ns_net : int;
  ns_c1 : float;
  ns_len : float;
  ns_minx : int;
  ns_maxx : int;
  ns_miny : int;
  ns_maxy : int;
  ns_cminx : int;
  ns_cmaxx : int;
  ns_cminy : int;
  ns_cmaxy : int;
}

type cell_snapshot = {
  s_idx : int;
  s_x : int;
  s_y : int;
  s_orient : Orient.t;
  s_variant : int;
  s_sites : int array;
  s_abs : Rect.t list;
  s_exp : Rect.t list;
  s_pp : (int * int) array;
  s_bbox : Rect.t;
  s_occ : int array;
  s_c3 : float;
  s_nets : net_state array;
  s_cons : (int * float) array;
}

type cost_snapshot = {
  g_c1 : float;
  g_c2 : float;
  g_c3 : float;
  g_c4 : float;
  g_teil : float;
}

let snapshot_cost t =
  { g_c1 = t.c1v; g_c2 = t.c2v; g_c3 = t.c3v; g_c4 = t.c4v; g_teil = t.teilv }

let restore_cost t s =
  t.c1v <- s.g_c1;
  t.c2v <- s.g_c2;
  t.c3v <- s.g_c3;
  t.c4v <- s.g_c4;
  t.teilv <- s.g_teil

let snapshot_cell t ci =
  let cs = t.cells.(ci) in
  { s_idx = ci;
    s_x = cs.x;
    s_y = cs.y;
    s_orient = cs.orient;
    s_variant = cs.variant;
    s_sites = Array.copy cs.sites;
    s_abs = cs.abs_tiles;
    s_exp = cs.exp_tiles;
    s_pp = Array.copy cs.pin_pos;
    s_bbox = cs.bbox;
    s_occ = Array.copy cs.occ;
    s_c3 = t.cell_c3.(ci);
    s_nets =
      Array.map
        (fun n ->
          { ns_net = n;
            ns_c1 = t.net_c1.(n);
            ns_len = t.net_len.(n);
            ns_minx = t.net_minx.(n);
            ns_maxx = t.net_maxx.(n);
            ns_miny = t.net_miny.(n);
            ns_maxy = t.net_maxy.(n);
            ns_cminx = t.net_cminx.(n);
            ns_cmaxx = t.net_cmaxx.(n);
            ns_cminy = t.net_cminy.(n);
            ns_cmaxy = t.net_cmaxy.(n) })
        t.cell_nets.(ci);
    s_cons = Array.map (fun k -> (k, t.cpen.(k))) t.cons_of_cell.(ci) }

let restore_cell t s =
  let cs = t.cells.(s.s_idx) in
  cs.x <- s.s_x;
  cs.y <- s.s_y;
  cs.orient <- s.s_orient;
  cs.variant <- s.s_variant;
  cs.sites <- s.s_sites;
  cs.abs_tiles <- s.s_abs;
  cs.exp_tiles <- s.s_exp;
  cs.pin_pos <- s.s_pp;
  cs.bbox <- s.s_bbox;
  cs.occ <- s.s_occ;
  Spatial.update t.idx s.s_idx s.s_bbox;
  t.cell_c3.(s.s_idx) <- s.s_c3;
  Array.iter
    (fun ns ->
      let n = ns.ns_net in
      t.net_c1.(n) <- ns.ns_c1;
      t.net_len.(n) <- ns.ns_len;
      t.net_minx.(n) <- ns.ns_minx;
      t.net_maxx.(n) <- ns.ns_maxx;
      t.net_miny.(n) <- ns.ns_miny;
      t.net_maxy.(n) <- ns.ns_maxy;
      t.net_cminx.(n) <- ns.ns_cminx;
      t.net_cmaxx.(n) <- ns.ns_cmaxx;
      t.net_cminy.(n) <- ns.ns_cminy;
      t.net_cmaxy.(n) <- ns.ns_cmaxy)
    s.s_nets;
  Array.iter (fun (k, pen) -> t.cpen.(k) <- pen) s.s_cons

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

let drift_report t =
  let c1 = t.c1v and c2 = t.c2v and c3 = t.c3v and c4 = t.c4v
  and teil = t.teilv in
  recompute_all t;
  let close a b =
    Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  List.filter_map
    (fun (term, cached, truth) ->
      if close cached truth then None else Some (term, cached, truth))
    [ ("C1", c1, t.c1v); ("C2", c2, t.c2v); ("C3", c3, t.c3v);
      ("C4", c4, t.c4v); ("TEIL", teil, t.teilv) ]

let verify_consistency t =
  match drift_report t with
  | [] -> ()
  | (term, cached, truth) :: _ ->
      failwith (Printf.sprintf "%s drift: cached %g vs true %g" term cached truth)

let verify_index t =
  let n = Array.length t.cells in
  if Spatial.length t.idx <> n then
    failwith
      (Printf.sprintf "Placement.verify_index: %d entries for %d cells"
         (Spatial.length t.idx) n);
  Array.iteri
    (fun ci cs ->
      if not (Spatial.mem t.idx ci) then
        failwith (Printf.sprintf "Placement.verify_index: cell %d missing" ci);
      if not (Rect.equal (Spatial.rect_of t.idx ci) cs.bbox) then
        failwith
          (Printf.sprintf "Placement.verify_index: cell %d bbox stale" ci))
    t.cells;
  (* Query equivalence against a from-scratch rebuild. *)
  let fresh = make_index t in
  Array.iteri (fun ci cs -> Spatial.insert fresh ci cs.bbox) t.cells;
  Array.iteri
    (fun ci cs ->
      let a = List.sort compare (Spatial.query t.idx cs.bbox)
      and b = List.sort compare (Spatial.query fresh cs.bbox) in
      if a <> b then
        failwith
          (Printf.sprintf "Placement.verify_index: query mismatch at cell %d"
             ci))
    t.cells

let pp_summary ppf t =
  Format.fprintf ppf "C1=%.0f C2=%.0f (p2=%.3g) C3=%.0f TEIL=%.0f cost=%.0f"
    t.c1v t.c2v t.p2v t.c3v t.teilv (total_cost t);
  if Array.length t.cons > 0 then Format.fprintf ppf " C4=%.0f" t.c4v
