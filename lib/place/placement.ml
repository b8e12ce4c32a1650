open Twmc_geometry
open Twmc_netlist

type expander =
  | No_expansion
  | Dynamic of Twmc_estimator.Dynamic_area.t
  | Static of (int * int * int * int) array

(* One cell's geometry and pin state, flat: tile [k] is [4k .. 4k+3]
   (x0 y0 x1 y1) of [abs]/[exp], pin [p]'s absolute position is [2p],
   [2p+1] of [pp].  The committed cells use this record, and so do the two
   pending slots of an evaluation, sized for the largest cell. *)
type cell_state = {
  mutable x : int;
  mutable y : int;
  mutable orient : Orient.t;
  mutable variant : int;
  sites : int array;
  mutable n_tiles : int;
  abs : int array;
  exp : int array;
  bb : int array;  (* bounding box of the expanded tiles *)
  pp : int array;
}

(* Indices into [tot] (the committed cost accumulators) and [acc] (the
   accumulators of the last evaluation).  Float arrays, not mutable float
   fields, so that updating them boxes nothing. *)
let k_c1 = 0
let k_c2 = 1
let k_c3 = 2
let k_c4 = 3
let k_teil = 4

type t = {
  nl : Netlist.t;
  prm : Params.t;
  mutable core : Rect.t;
  (* [Rect.center core]: the origin of the dynamic estimator's modulation. *)
  mutable ccx : int;
  mutable ccy : int;
  mutable expander : expander;
  cells : cell_state array;
  (* Static per-cell data: which pins are committed, the uncommitted ones,
     the capacity of each site and each pin's allowed sites, per variant. *)
  pin_committed : bool array array;
  uncommitted : int array array;
  site_cap : int array array array;
  allowed : int array array array array;
  (* Net pin refs flattened to (cell, pin) pairs, the net weights, and each
     net's committed C1 and length. *)
  net_refs : int array array;
  net_hw : float array;
  net_vw : float array;
  net_c1 : float array;
  net_len : float array;
  (* nets_of_cell as arrays, in the list's order: the C1/TEIL float
     accumulator chains depend on it. *)
  cell_nets : int array array;
  cell_c3 : float array;
  (* Placement constraints (netlist order) and their cached integer-valued
     penalties; [cons_of_cell.(ci)] lists the constraint slots that must
     re-evaluate when cell [ci]'s geometry changes (ascending order — the
     C4 accumulator chain depends on it). *)
  cons : Constr.t array;
  cpen : float array;
  cons_of_cell : int array array;
  tot : float array;
  mutable p2v : float;
  (* The committed expanded-tile bboxes, packed: cell [ci]'s is at [4ci]
     .. [4ci + 3] (x0 y0 x1 y1).  From [grid_min_cells] cells on, [idx]
     is a spatial grid over the same boxes, keyed by cell index; below,
     there is none.  Both are kept in sync with the cells and rebuilt by
     [recompute_all]. *)
  bbs : int array;
  mutable idx : Spatial.t option;
  (* Any mutation bumps [version]; [evaluated] is the version the last
     completed evaluation saw, or -1. *)
  mutable version : int;
  mutable evaluated : int;
  (* Scratch, preallocated at [create]. *)
  qbuf : int array;  (* grid query hits *)
  share_old : int array;  (* per [cons_of_cell] entry: the pre-move share *)
  (* The committed overlap and per-[cons_of_cell] shares of cell
     [memo_ci] at version [memo_version]: the "before" terms of a move
     that starts from the committed state, shared by the rungs of a
     rescue ladder. *)
  mutable memo_ci : int;
  mutable memo_version : int;
  mutable memo_ov : int;
  memo_share : int array;
  occ_buf : int array;  (* per-site pin counts, all zero between uses *)
  ebuf : int array;  (* one tile's four dynamic expansions *)
  bbuf : int array;  (* two bounding boxes for the constraint evaluator *)
  (* Scratch of an evaluation: the pending slots (an interchange moves
     two cells), whether a slot's geometry differs from the committed
     cell's, its C3; and the simulated per-net C1 and length, and
     per-constraint penalties, valid where their stamp equals
     [sim_stamp].  A pin-site move stamps [moved_net_stamp] of each net
     that holds a pin it moves. *)
  slots : cell_state array;
  sl_ci : int array;
  sl_geom : bool array;
  sl_c3 : float array;
  mutable n_pending : int;
  acc : float array;
  sim_c1 : float array;
  sim_len : float array;
  sim_net_stamp : int array;
  moved_net_stamp : int array;
  sim_cpen : float array;
  sim_cpen_stamp : int array;
  mutable sim_stamp : int;
  (* Lazy caches of orientation-transformed geometry, flat like the cell
     state, keyed [cell][variant][orient] ([cell][orient] for the
     committed pins); [unset] marks an entry not yet computed. *)
  tiles_cache : int array array array array;
  sites_cache : int array array array array;
  fixed_cache : int array array array;
}

let netlist t = t.nl
let params t = t.prm
let core t = t.core
let touch t = t.version <- t.version + 1

let[@inline] imin (a : int) b = if a < b then a else b
let[@inline] imax (a : int) b = if a > b then a else b

(* [Array.blit] of [n] ints from [src.(so)] to [dst.(d)], for arrays that do
   not overlap.  An int store needs no write barrier, but [caml_array_blit]
   runs [caml_modify] on every element of a major-heap destination. *)
let[@inline] copy_ints (src : int array) so (dst : int array) d n =
  for k = 0 to n - 1 do
    dst.(d + k) <- src.(so + k)
  done

(* The first [n] floats of [src] into [dst]: unboxed loads and stores,
   where [Array.blit] makes a C call. *)
let[@inline] copy_floats (src : float array) (dst : float array) n =
  for k = 0 to n - 1 do
    dst.(k) <- src.(k)
  done

(* ------------------------------------------------------------------ *)
(* Geometry caches                                                     *)

let unset = [| min_int |]

let flat_of_rects rects =
  let a = Array.make (4 * List.length rects) 0 in
  List.iteri
    (fun k (r : Rect.t) ->
      a.(4 * k) <- r.Rect.x0;
      a.((4 * k) + 1) <- r.Rect.y0;
      a.((4 * k) + 2) <- r.Rect.x1;
      a.((4 * k) + 3) <- r.Rect.y1)
    rects;
  a

let flat_of_points pts =
  let a = Array.make (2 * Array.length pts) 0 in
  Array.iteri
    (fun k (x, y) ->
      a.(2 * k) <- x;
      a.((2 * k) + 1) <- y)
    pts;
  a

let cached_tiles t ci vi o =
  let oi = Orient.to_int o in
  let a = t.tiles_cache.(ci).(vi).(oi) in
  if a != unset then a
  else begin
    let shape = (Cell.variant t.nl.Netlist.cells.(ci) vi).Cell.shape in
    let a = flat_of_rects (Shape.tiles (Shape.transform o shape)) in
    t.tiles_cache.(ci).(vi).(oi) <- a;
    a
  end

let cached_sites t ci vi o =
  let oi = Orient.to_int o in
  let a = t.sites_cache.(ci).(vi).(oi) in
  if a != unset then a
  else begin
    let v = Cell.variant t.nl.Netlist.cells.(ci) vi in
    let a =
      flat_of_points
        (Array.map
           (fun (s : Pin_site.t) -> Orient.apply o (s.Pin_site.x, s.Pin_site.y))
           v.Cell.sites)
    in
    t.sites_cache.(ci).(vi).(oi) <- a;
    a
  end

let cached_fixed t ci o =
  let oi = Orient.to_int o in
  let a = t.fixed_cache.(ci).(oi) in
  if a != unset then a
  else begin
    let c = t.nl.Netlist.cells.(ci) in
    let a =
      flat_of_points
        (Array.map
           (fun (p : Pin.t) ->
             match p.Pin.loc with
             | Pin.Fixed (x, y) -> Orient.apply o (x, y)
             | Pin.Uncommitted _ -> (0, 0))
           c.Cell.pins)
    in
    t.fixed_cache.(ci).(oi) <- a;
    a
  end

(* ------------------------------------------------------------------ *)
(* Geometry of one cell state                                          *)

(* [Rect.expand] of tile [k] of [g.abs] into [g.exp]. *)
let set_expanded g k ~left ~right ~bottom ~top =
  let o = 4 * k in
  let x0 = g.abs.(o) - left
  and y0 = g.abs.(o + 1) - bottom
  and x1 = g.abs.(o + 2) + right
  and y1 = g.abs.(o + 3) + top in
  if x0 >= x1 || y0 >= y1 then begin
    g.exp.(o) <- 0;
    g.exp.(o + 1) <- 0;
    g.exp.(o + 2) <- 0;
    g.exp.(o + 3) <- 0
  end
  else begin
    g.exp.(o) <- x0;
    g.exp.(o + 1) <- y0;
    g.exp.(o + 2) <- x1;
    g.exp.(o + 3) <- y1
  end

let expand_tiles t ci g =
  match t.expander with
  | No_expansion -> copy_ints g.abs 0 g.exp 0 (4 * g.n_tiles)
  | Static exps ->
      let left, right, bottom, top = exps.(ci) in
      for k = 0 to g.n_tiles - 1 do
        set_expanded g k ~left ~right ~bottom ~top
      done
  | Dynamic est ->
      (* The modulation functions live in core-centered coordinates. *)
      let e = t.ebuf in
      for k = 0 to g.n_tiles - 1 do
        let o = 4 * k in
        Twmc_estimator.Dynamic_area.tile_expansions_into est ~cell:ci
          ~variant:g.variant ~x0:(g.abs.(o) - t.ccx) ~y0:(g.abs.(o + 1) - t.ccy)
          ~x1:(g.abs.(o + 2) - t.ccx) ~y1:(g.abs.(o + 3) - t.ccy) e 0;
        set_expanded g k ~left:e.(0) ~right:e.(1) ~bottom:e.(2) ~top:e.(3)
      done

(* [List.fold_left Rect.hull] over the first [n] rectangles of [flat],
   written to [dst.(o)] .. [dst.(o + 3)]; all zero when [n] is 0. *)
let hull_into flat n dst o =
  if n = 0 then begin
    dst.(o) <- 0;
    dst.(o + 1) <- 0;
    dst.(o + 2) <- 0;
    dst.(o + 3) <- 0
  end
  else begin
    copy_ints flat 0 dst o 4;
    for k = 1 to n - 1 do
      let q = 4 * k in
      if dst.(o) >= dst.(o + 2) || dst.(o + 1) >= dst.(o + 3) then
        copy_ints flat q dst o 4
      else if not (flat.(q) >= flat.(q + 2) || flat.(q + 1) >= flat.(q + 3))
      then begin
        dst.(o) <- imin dst.(o) flat.(q);
        dst.(o + 1) <- imin dst.(o + 1) flat.(q + 1);
        dst.(o + 2) <- imax dst.(o + 2) flat.(q + 2);
        dst.(o + 3) <- imax dst.(o + 3) flat.(q + 3)
      end
    done
  end

let refresh_pins t ci g =
  let fixed = cached_fixed t ci g.orient in
  let site_pos = cached_sites t ci g.variant g.orient in
  let committed = t.pin_committed.(ci) in
  for p = 0 to Array.length committed - 1 do
    if committed.(p) then begin
      g.pp.(2 * p) <- g.x + fixed.(2 * p);
      g.pp.((2 * p) + 1) <- g.y + fixed.((2 * p) + 1)
    end
    else begin
      let s = g.sites.(p) in
      g.pp.(2 * p) <- g.x + site_pos.(2 * s);
      g.pp.((2 * p) + 1) <- g.y + site_pos.((2 * s) + 1)
    end
  done

(* Tiles, expanded tiles, bbox and pin positions from the state's
   position, orientation, variant and sites. *)
let refresh_geometry t ci g =
  let tiles0 = cached_tiles t ci g.variant g.orient in
  let n = Array.length tiles0 / 4 in
  g.n_tiles <- n;
  for k = 0 to n - 1 do
    let o = 4 * k in
    g.abs.(o) <- tiles0.(o) + g.x;
    g.abs.(o + 1) <- tiles0.(o + 1) + g.y;
    g.abs.(o + 2) <- tiles0.(o + 2) + g.x;
    g.abs.(o + 3) <- tiles0.(o + 3) + g.y
  done;
  expand_tiles t ci g;
  hull_into g.exp n g.bb 0;
  refresh_pins t ci g

let rects_of flat n =
  List.init n (fun k ->
      { Rect.x0 = flat.(4 * k);
        y0 = flat.((4 * k) + 1);
        x1 = flat.((4 * k) + 2);
        y1 = flat.((4 * k) + 3) })

(* ------------------------------------------------------------------ *)
(* Overlap candidates                                                  *)

(* The cell count from which the overlap term takes its candidates from a
   spatial grid instead of scanning every packed bbox.  [cell_overlap] on
   random Synth placements, three seeds, three sweeps (2-core x86-64, OCaml
   5.1.1), ns per call, scan vs grid: 8 cells 36-79 vs 83-168, 16 cells
   62-99 vs 106-165, 33 cells 104-198 vs 125-192, 40 cells 120-149 vs
   122-203, 48 cells 141-186 vs 123-183, 62 cells 177-337 vs 124-224, 120
   cells 334-631 vs 128-237, 220 cells 610-1148 vs 134-284.  The two meet
   between 40 and 48 cells; the scan also spares every commit the grid's
   upkeep. *)
let grid_min_cells = 48

let make_grid core n =
  let g =
    imax 4 (imin 64 (2 * int_of_float (ceil (sqrt (float_of_int (imax 1 n))))))
  in
  let extent = imax (Rect.width core) (Rect.height core) in
  Spatial.create ~world:core ~cell_size:(imax 1 ((extent + g - 1) / g))

(* ------------------------------------------------------------------ *)
(* Per-cell cache refresh                                              *)

let bbox_rect g = { Rect.x0 = g.bb.(0); y0 = g.bb.(1); x1 = g.bb.(2); y1 = g.bb.(3) }

(* Publishes committed cell [ci]'s bbox, [g.bb], to the packed array and
   the grid. *)
let index_update t ci g =
  let b = g.bb and o = 4 * ci in
  t.bbs.(o) <- b.(0);
  t.bbs.(o + 1) <- b.(1);
  t.bbs.(o + 2) <- b.(2);
  t.bbs.(o + 3) <- b.(3);
  match t.idx with
  | None -> ()
  | Some idx ->
      if Spatial.mem idx ci then
        Spatial.update_coords idx ci ~x0:b.(0) ~y0:b.(1) ~x1:b.(2) ~y1:b.(3)
      else Spatial.insert idx ci (bbox_rect g)

let refresh_cell t ci =
  let cs = t.cells.(ci) in
  refresh_geometry t ci cs;
  index_update t ci cs

(* ------------------------------------------------------------------ *)
(* Net spans                                                           *)

let slot_of t ci =
  if t.n_pending > 0 && t.sl_ci.(0) = ci then 0
  else if t.n_pending > 1 && t.sl_ci.(1) = ci then 1
  else -1

(* C1 and TEIL contribution of net [n], written to [c1.(n)] and
   [len.(n)]: its span in one pass over the pin refs, at the pending
   slots' pin positions when [pending].  The slots' cells are read once
   per net and matched in [slot_of]'s order; no cell index is -1.
   Extremes are exact ints and the two floats come from one expression on
   every path, so evaluated and recomputed values agree bit for bit. *)
let net_cost t n ~pending c1 len =
  let refs = t.net_refs.(n) in
  let ci0 = if pending && t.n_pending > 0 then t.sl_ci.(0) else -1
  and ci1 = if pending && t.n_pending > 1 then t.sl_ci.(1) else -1 in
  let minx = ref max_int and maxx = ref min_int in
  let miny = ref max_int and maxy = ref min_int in
  for k = 0 to (Array.length refs / 2) - 1 do
    let c = refs.(2 * k) and p = refs.((2 * k) + 1) in
    let pp =
      if c = ci0 then t.slots.(0).pp
      else if c = ci1 then t.slots.(1).pp
      else t.cells.(c).pp
    in
    let x = pp.(2 * p) and y = pp.((2 * p) + 1) in
    minx := imin !minx x;
    maxx := imax !maxx x;
    miny := imin !miny y;
    maxy := imax !maxy y
  done;
  let dx = float_of_int (!maxx - !minx) and dy = float_of_int (!maxy - !miny) in
  c1.(n) <- (dx *. t.net_hw.(n)) +. (dy *. t.net_vw.(n));
  len.(n) <- dx +. dy

(* ------------------------------------------------------------------ *)
(* Cost terms                                                          *)

(* Summed [Rect.inter_area] of every expanded-tile pair of [a] and [b]. *)
let tiles_overlap a b =
  let total = ref 0 in
  for i = 0 to a.n_tiles - 1 do
    let oa = 4 * i in
    let ax0 = a.exp.(oa) and ay0 = a.exp.(oa + 1)
    and ax1 = a.exp.(oa + 2) and ay1 = a.exp.(oa + 3) in
    for j = 0 to b.n_tiles - 1 do
      let ob = 4 * j in
      let x0 = imax ax0 b.exp.(ob) and x1 = imin ax1 b.exp.(ob + 2) in
      let y0 = imax ay0 b.exp.(ob + 1) and y1 = imin ay1 b.exp.(ob + 3) in
      if x0 < x1 && y0 < y1 then total := !total + ((x1 - x0) * (y1 - y0))
    done
  done;
  !total

(* [Rect.overlaps] of the two bboxes. *)
let bbox_overlap a b =
  let a = a.bb and b = b.bb in
  imax a.(0) b.(0) < imin a.(2) b.(2) && imax a.(1) b.(1) < imin a.(3) b.(3)

(* [Rect.inter_area] of the rectangle at [o] in [flat] with [r]. *)
let inter_area_at flat o (r : Rect.t) =
  let x0 = imax flat.(o) r.Rect.x0 and x1 = imin flat.(o + 2) r.Rect.x1 in
  let y0 = imax flat.(o + 1) r.Rect.y0 and y1 = imin flat.(o + 3) r.Rect.y1 in
  if x0 < x1 && y0 < y1 then (x1 - x0) * (y1 - y0) else 0

(* [Rect.area] of the rectangle at [o] in [flat]. *)
let area_at flat o =
  let w = flat.(o + 2) - flat.(o) and h = flat.(o + 3) - flat.(o + 1) in
  if w <= 0 || h <= 0 then 0 else w * h

(* Area of [g]'s expanded tiles outside the core: the overlap with the
   four boundary dummy cells (footnote 16). *)
let boundary_overlap t g =
  let total = ref 0 in
  for k = 0 to g.n_tiles - 1 do
    total := !total + (area_at g.exp (4 * k) - inter_area_at g.exp (4 * k) t.core)
  done;
  !total

(* The geometry pending slot [s] evaluates: its own, or the committed
   cell's when only pins moved. *)
let slot_geometry t s = if t.sl_geom.(s) then t.slots.(s) else t.cells.(t.sl_ci.(s))

(* Overlap of cell [ci], placed as [g], against every other cell and the
   core boundary.  Candidates are the cells whose packed bbox meets [g]'s,
   or, from [grid_min_cells] on, the grid's hits that do; with [~pending]
   the cells pending in the evaluation are skipped there (both hold their
   committed geometry) and added back as evaluated.  The total is an exact
   integer sum, and the pairs whose bboxes do not overlap add 0, so any
   enumeration of a superset of the overlapping pairs gives the same
   value. *)
let overlap t ci g ~pending =
  let total = ref (boundary_overlap t g) in
  let x0 = g.bb.(0) and y0 = g.bb.(1) and x1 = g.bb.(2) and y1 = g.bb.(3) in
  (match t.idx with
  | None ->
      let b = t.bbs in
      for cj = 0 to Array.length t.cells - 1 do
        let o = 4 * cj in
        (* Each box starts before the other ends, on both axes: all four
           differences are non-negative, so their [lor] is. *)
        if
          (b.(o + 2) - x0 - 1) lor (x1 - b.(o) - 1) lor (b.(o + 3) - y0 - 1)
          lor (y1 - b.(o + 1) - 1)
          >= 0
          && cj <> ci
          && not (pending && slot_of t cj >= 0)
        then total := !total + tiles_overlap g t.cells.(cj)
      done
  | Some idx ->
      let n = Spatial.query_into idx ~x0 ~y0 ~x1 ~y1 t.qbuf in
      for k = 0 to n - 1 do
        let cj = t.qbuf.(k) in
        if cj <> ci && not (pending && slot_of t cj >= 0) then begin
          let o = t.cells.(cj) in
          if bbox_overlap g o then total := !total + tiles_overlap g o
        end
      done);
  if pending then
    for s = 0 to t.n_pending - 1 do
      if t.sl_ci.(s) <> ci then begin
        let o = slot_geometry t s in
        if bbox_overlap g o then total := !total + tiles_overlap g o
      end
    done;
  !total

let cell_overlap t ci =
  float_of_int (overlap t ci t.cells.(ci) ~pending:false)

(* C3 of cell [ci] as variant [variant] with site assignment [sites],
   written to [out.(k)]: the penalty of every over-capacity site, summed in
   site order. *)
let c3_into t ci ~variant sites out k =
  let caps = t.site_cap.(ci).(variant) and unc = t.uncommitted.(ci) in
  let occ = t.occ_buf in
  for j = 0 to Array.length unc - 1 do
    let s = sites.(unc.(j)) in
    occ.(s) <- occ.(s) + 1
  done;
  let kappa = t.prm.Params.kappa in
  out.(k) <- 0.0;
  for s = 0 to Array.length caps - 1 do
    let n = occ.(s) in
    if n > caps.(s) then begin
      let e = float_of_int (n - caps.(s) + kappa) in
      out.(k) <- out.(k) +. (e *. e)
    end
  done;
  for j = 0 to Array.length unc - 1 do
    occ.(sites.(unc.(j))) <- 0
  done

(* ------------------------------------------------------------------ *)
(* Constraint penalties (C4)                                           *)

let abs_tiles t ci =
  let cs = t.cells.(ci) in
  rects_of cs.abs cs.n_tiles

(* Whole-constraint evaluation against the committed state, by
   [Constr.eval] itself: the from-scratch side of [recompute_all].  It
   returns an exact integer, so it agrees exactly with what the
   evaluation computes on flat geometry. *)
let eval_constraint t k =
  float_of_int
    (Constr.eval ~n_cells:(Array.length t.cells) ~tiles:(abs_tiles t)
       ~pos:(fun ci -> (t.cells.(ci).x, t.cells.(ci).y))
       ~core:t.core t.cons.(k))

(* The state the evaluation holds cell [ci] in: its pending slot, or
   the committed cell. *)
let eval_state t ci =
  let s = slot_of t ci in
  if s >= 0 then slot_geometry t s else t.cells.(ci)

(* Bounding box of [g]'s absolute tiles ([Constr.bbox_of_tiles]) into
   [t.bbuf.(o)] .. [t.bbuf.(o + 3)]; false when [g] has no tiles. *)
let abs_bbox t g o =
  hull_into g.abs g.n_tiles t.bbuf o;
  g.n_tiles > 0

(* [g]'s share of a blockage or density rectangle [r]: the summed
   [Rect.inter_area] of its absolute tiles with [r]. *)
let rect_share g (r : Rect.t) =
  let total = ref 0 in
  for k = 0 to g.n_tiles - 1 do
    total := !total + inter_area_at g.abs (4 * k) r
  done;
  !total

(* [g]'s share of a keepout of [margin] around [h]: the summed
   [Rect.inter_area] of its absolute tiles with [h]'s halo tiles. *)
let halo_share g h margin =
  let total = ref 0 in
  for i = 0 to g.n_tiles - 1 do
    let oi = 4 * i in
    for j = 0 to h.n_tiles - 1 do
      let oj = 4 * j in
      (* The halo tile, [Rect.expand_uniform]: empty when degenerate. *)
      let hx0 = h.abs.(oj) - margin and hy0 = h.abs.(oj + 1) - margin
      and hx1 = h.abs.(oj + 2) + margin
      and hy1 = h.abs.(oj + 3) + margin in
      if hx0 < hx1 && hy0 < hy1 then begin
        let x0 = imax g.abs.(oi) hx0 and x1 = imin g.abs.(oi + 2) hx1 in
        let y0 = imax g.abs.(oi + 1) hy0 and y1 = imin g.abs.(oi + 3) hy1 in
        if x0 < x1 && y0 < y1 then total := !total + ((x1 - x0) * (y1 - y0))
      end
    done
  done;
  !total

let tiles_in_rect t r =
  let total = ref 0 in
  for ci = 0 to Array.length t.cells - 1 do
    total := !total + rect_share (eval_state t ci) r
  done;
  !total

(* [Constr.eval] over the evaluated state, case for case, on flat
   geometry.  Both return exact integers, so they agree exactly. *)
let eval_constraint_pending t k =
  match t.cons.(k) with
  | Constr.Blockage r -> tiles_in_rect t r
  | Constr.Keepout { cell; margin } ->
      let h = eval_state t cell in
      let total = ref 0 in
      for ci = 0 to Array.length t.cells - 1 do
        if ci <> cell then
          total := !total + halo_share (eval_state t ci) h margin
      done;
      !total
  | Constr.Fixed { cell; x; y } ->
      let g = eval_state t cell in
      abs (g.x - x) + abs (g.y - y)
  | Constr.Region { cell; rect } ->
      let g = eval_state t cell in
      let total = ref 0 in
      for k = 0 to g.n_tiles - 1 do
        total :=
          !total + (area_at g.abs (4 * k) - inter_area_at g.abs (4 * k) rect)
      done;
      !total
  | Constr.Boundary { cell; side } ->
      if not (abs_bbox t (eval_state t cell) 0) then 0
      else begin
        let b = t.bbuf and c = t.core in
        match side with
        | Side.Left -> abs (b.(0) - c.Rect.x0)
        | Side.Right -> abs (c.Rect.x1 - b.(2))
        | Side.Bottom -> abs (b.(1) - c.Rect.y0)
        | Side.Top -> abs (c.Rect.y1 - b.(3))
      end
  | Constr.Align { a; b; axis } -> (
      let ga = eval_state t a and gb = eval_state t b in
      match axis with
      | Constr.H -> abs (ga.y - gb.y)
      | Constr.V -> abs (ga.x - gb.x))
  | Constr.Abut { a; b } ->
      if
        not (abs_bbox t (eval_state t a) 0 && abs_bbox t (eval_state t b) 4)
      then 0
      else begin
        let bb = t.bbuf in
        let gap lo0 hi0 lo1 hi1 = imax 0 (imax (lo1 - hi0) (lo0 - hi1)) in
        gap bb.(0) bb.(2) bb.(4) bb.(6) + gap bb.(1) bb.(3) bb.(5) bb.(7)
      end
  | Constr.Density { rect; cap_permille } ->
      imax 0 (tiles_in_rect t rect - (Rect.area rect * cap_permille / 1000))

(* Cell [ci]'s share, placed as [g], of constraint [k] when that penalty is
   a sum of per-cell shares of which moving [ci] changes only its own: a
   blockage, or a keepout around another cell, whose halo is read in the
   state the evaluation holds that cell in.  -1 for every other
   constraint, which the evaluation recomputes in full: the cell-local ones
   are O(1), a keepout's owner moves its whole halo, and a density penalty
   is clamped at 0. *)
let share t k ci g =
  match t.cons.(k) with
  | Constr.Blockage r -> rect_share g r
  | Constr.Keepout { cell; margin } when cell <> ci ->
      halo_share g (eval_state t cell) margin
  | _ -> -1

(* ------------------------------------------------------------------ *)
(* Full recomputation                                                  *)

let recompute_all t =
  touch t;
  if Option.is_some t.idx then
    t.idx <- Some (make_grid t.core (Array.length t.cells));
  Array.iteri (fun ci _ -> refresh_cell t ci) t.cells;
  t.tot.(k_c1) <- 0.0;
  t.tot.(k_teil) <- 0.0;
  for n = 0 to Array.length t.net_refs - 1 do
    net_cost t n ~pending:false t.net_c1 t.net_len;
    t.tot.(k_c1) <- t.tot.(k_c1) +. t.net_c1.(n);
    t.tot.(k_teil) <- t.tot.(k_teil) +. t.net_len.(n)
  done;
  t.tot.(k_c3) <- 0.0;
  Array.iteri
    (fun ci cs ->
      c3_into t ci ~variant:cs.variant cs.sites t.cell_c3 ci;
      t.tot.(k_c3) <- t.tot.(k_c3) +. t.cell_c3.(ci))
    t.cells;
  (* Each unordered pair counted once; cell_overlap counts both directions,
     and the boundary term once per cell.  Deliberately the full O(n^2)
     scan, independent of the index: this is the drift oracle the
     incremental path is checked against.  Partial sums are exact integers
     well under 2^53, so summing per pair or per tile gives the same
     float. *)
  let pairwise = ref 0.0 and boundary = ref 0.0 in
  Array.iteri
    (fun ci cs ->
      boundary := !boundary +. float_of_int (boundary_overlap t cs);
      Array.iteri
        (fun cj other ->
          if cj > ci && bbox_overlap cs other then
            pairwise := !pairwise +. float_of_int (tiles_overlap cs other))
        t.cells)
    t.cells;
  t.tot.(k_c2) <- !pairwise +. !boundary;
  t.tot.(k_c4) <- 0.0;
  Array.iteri
    (fun k _ ->
      let v = eval_constraint t k in
      t.cpen.(k) <- v;
      t.tot.(k_c4) <- t.tot.(k_c4) +. v)
    t.cons

(* [recompute_all]'s C1 sum alone, in its net order: the interface says
   why the placement is then what [recompute_all] would leave. *)
let resum t =
  touch t;
  t.tot.(k_c1) <- 0.0;
  for n = 0 to Array.length t.net_c1 - 1 do
    t.tot.(k_c1) <- t.tot.(k_c1) +. t.net_c1.(n)
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_state ~max_tiles ~n_pins ~x ~y ~sites =
  { x;
    y;
    orient = Orient.R0;
    variant = 0;
    sites;
    n_tiles = 0;
    abs = Array.make (4 * max_tiles) 0;
    exp = Array.make (4 * max_tiles) 0;
    bb = Array.make 4 0;
    pp = Array.make (2 * n_pins) 0 }

let max_tiles_of (c : Cell.t) =
  let m = ref 0 in
  for vi = 0 to Cell.n_variants c - 1 do
    m := imax !m (List.length (Shape.tiles (Cell.variant c vi).Cell.shape))
  done;
  !m

let set_center t =
  let cx, cy = Rect.center t.core in
  t.ccx <- cx;
  t.ccy <- cy

let create ~params ~core ~expander ~rng (nl : Netlist.t) =
  if Rect.is_empty core then invalid_arg "Placement.create: empty core";
  let n = Netlist.n_cells nl in
  let cells =
    Array.init n (fun ci ->
        let c = nl.Netlist.cells.(ci) in
        (* Draw order: sites, then y, then x.  Every seeded result
           depends on it. *)
        let sites = Sites.random_assignment rng c ~variant:0 in
        let y = Twmc_sa.Rng.int_incl rng core.Rect.y0 core.Rect.y1 in
        let x = Twmc_sa.Rng.int_incl rng core.Rect.x0 core.Rect.x1 in
        make_state ~max_tiles:(max_tiles_of c) ~n_pins:(Cell.n_pins c) ~x ~y
          ~sites)
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
  let net_refs =
    Array.map
      (fun (net : Net.t) ->
        let refs = net.Net.pins in
        Array.init
          (2 * Array.length refs)
          (fun k ->
            let r = refs.(k / 2) in
            if k mod 2 = 0 then r.Net.cell else r.Net.pin))
      nl.Netlist.nets
  in
  let per_variant f =
    Array.map
      (fun (c : Cell.t) -> Array.init (Cell.n_variants c) (f c))
      nl.Netlist.cells
  in
  let fold_cells f = Array.fold_left (fun acc c -> imax acc (f c)) 0 nl.Netlist.cells in
  let max_pins = fold_cells Cell.n_pins in
  let max_tiles = fold_cells max_tiles_of in
  let max_sites =
    fold_cells (fun c ->
        Array.fold_left
          (fun acc (v : Cell.variant) -> imax acc (Array.length v.Cell.sites))
          0 c.Cell.variants)
  in
  let slot () =
    make_state ~max_tiles ~n_pins:max_pins ~x:0 ~y:0
      ~sites:(Array.make max_pins (-1))
  in
  let unset_per_variant () =
    per_variant (fun _ _ -> Array.make 8 unset)
  in
  let t =
    { nl;
      prm = params;
      core;
      ccx = 0;
      ccy = 0;
      expander;
      cells;
      pin_committed =
        Array.map
          (fun (c : Cell.t) -> Array.map Pin.is_committed c.Cell.pins)
          nl.Netlist.cells;
      uncommitted =
        Array.map
          (fun (c : Cell.t) ->
            let acc = ref [] in
            Array.iteri
              (fun p pin -> if not (Pin.is_committed pin) then acc := p :: !acc)
              c.Cell.pins;
            Array.of_list (List.rev !acc))
          nl.Netlist.cells;
      site_cap =
        per_variant (fun c vi ->
            Array.map
              (fun (s : Pin_site.t) -> s.Pin_site.capacity)
              (Cell.variant c vi).Cell.sites);
      allowed =
        per_variant (fun c vi ->
            Array.init (Cell.n_pins c) (fun p ->
                Array.of_list (Cell.allowed_sites c ~variant:vi p)));
      net_refs;
      net_hw = Array.map (fun (net : Net.t) -> net.Net.hweight) nl.Netlist.nets;
      net_vw = Array.map (fun (net : Net.t) -> net.Net.vweight) nl.Netlist.nets;
      net_c1 = Array.make n_nets 0.0;
      net_len = Array.make n_nets 0.0;
      cell_nets;
      cell_c3 = Array.make n 0.0;
      cons;
      cpen = Array.make (Array.length cons) 0.0;
      cons_of_cell;
      tot = Array.make 5 0.0;
      p2v = 1.0;
      bbs = Array.make (4 * n) 0;
      idx = (if n >= grid_min_cells then Some (make_grid core n) else None);
      version = 0;
      evaluated = -1;
      qbuf = Array.make (imax 1 n) 0;
      share_old = Array.make (Array.length cons) 0;
      memo_ci = -1;
      memo_version = -1;
      memo_ov = 0;
      memo_share = Array.make (Array.length cons) 0;
      occ_buf = Array.make max_sites 0;
      ebuf = Array.make 4 0;
      bbuf = Array.make 8 0;
      slots = [| slot (); slot () |];
      sl_ci = Array.make 2 (-1);
      sl_geom = Array.make 2 false;
      sl_c3 = Array.make 2 0.0;
      n_pending = 0;
      acc = Array.make 5 0.0;
      sim_c1 = Array.make n_nets 0.0;
      sim_len = Array.make n_nets 0.0;
      sim_net_stamp = Array.make n_nets 0;
      moved_net_stamp = Array.make n_nets 0;
      sim_cpen = Array.make (Array.length cons) 0.0;
      sim_cpen_stamp = Array.make (Array.length cons) 0;
      sim_stamp = 0;
      tiles_cache = unset_per_variant ();
      sites_cache = unset_per_variant ();
      fixed_cache = Array.init n (fun _ -> Array.make 8 unset) }
  in
  set_center t;
  recompute_all t;
  t

let expander t = t.expander

let set_expander t e =
  t.expander <- e;
  recompute_all t

let set_core t core =
  if Rect.is_empty core then invalid_arg "Placement.set_core: empty core";
  t.core <- core;
  set_center t;
  recompute_all t

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let cell_pos t ci = (t.cells.(ci).x, t.cells.(ci).y)
let cell_x t ci = t.cells.(ci).x
let cell_y t ci = t.cells.(ci).y
let cell_orient t ci = t.cells.(ci).orient
let cell_variant t ci = t.cells.(ci).variant
let site_of_pin t ~cell ~pin = t.cells.(cell).sites.(pin)

let pin_position t ~cell ~pin =
  let pp = t.cells.(cell).pp in
  (pp.(2 * pin), pp.((2 * pin) + 1))

let expanded_tiles t ci =
  let cs = t.cells.(ci) in
  rects_of cs.exp cs.n_tiles

let allowed_sites t ~cell ~variant ~pin = t.allowed.(cell).(variant).(pin)

let expanded_area t =
  Array.fold_left
    (fun acc cs ->
      let a = ref acc in
      for k = 0 to cs.n_tiles - 1 do
        a := !a + area_at cs.exp (4 * k)
      done;
      !a)
    0 t.cells

let c1 t = t.tot.(k_c1)
let c2_raw t = t.tot.(k_c2)
let c3 t = t.tot.(k_c3)
let c4 t = t.tot.(k_c4)
let p2 t = t.p2v

let set_p2 t v =
  touch t;
  t.p2v <- v

let teil t = t.tot.(k_teil)
let n_constraints t = Array.length t.cons
let constraints t = t.cons
let constraint_penalty t k = t.cpen.(k)

(* The unconstrained expression is kept verbatim so netlists without
   constraints produce bit-identical costs (and trajectories) to the
   pre-constraint engine.  Inlined, so an evaluation boxes no float. *)
let[@inline] cost_of t (a : float array) =
  let base = a.(k_c1) +. (t.p2v *. a.(k_c2)) +. (t.prm.Params.p3 *. a.(k_c3)) in
  if Array.length t.cons = 0 then base
  else base +. (t.prm.Params.p4 *. a.(k_c4))

let total_cost t = cost_of t t.tot

let chip_bbox t =
  Array.fold_left
    (fun acc cs -> List.fold_left Rect.hull acc (rects_of cs.exp cs.n_tiles))
    Rect.empty t.cells

(* ------------------------------------------------------------------ *)
(* Evaluate once, commit what was evaluated                            *)

(* Copies the site assignment [src] of cell [ci] into [dst], rejecting
   one of the wrong length, or one that puts an uncommitted pin off
   [variant]'s site table, before anything reads it. *)
let set_sites t ci ~variant (dst : int array) (src : int array) =
  let n = Array.length t.pin_committed.(ci) in
  if Array.length src <> n then
    invalid_arg "Placement: site assignment of the wrong length";
  let n_sites = Array.length t.site_cap.(ci).(variant)
  and unc = t.uncommitted.(ci) in
  for j = 0 to Array.length unc - 1 do
    let s = src.(unc.(j)) in
    if s < 0 || s >= n_sites then
      invalid_arg "Placement: pin site out of range for the variant"
  done;
  copy_ints src 0 dst 0 n

(* Clamp the first [n] entries of a site assignment into [variant]'s site
   array, honouring edge restrictions; mutates [sites] in place. *)
let reclamp_sites t ci ~variant sites n =
  let n_sites = Array.length t.site_cap.(ci).(variant) in
  let allowed = t.allowed.(ci).(variant) in
  for p = 0 to n - 1 do
    let s = sites.(p) in
    if s >= 0 then begin
      let s = if s < n_sites then s else s mod imax 1 n_sites in
      let a = allowed.(p) in
      if Array.length a = 0 then
        invalid_arg
          "Placement.set_cell: pin has no allowed site in new variant";
      (* [Array.mem], on ints. *)
      let j = ref 0 in
      while !j < Array.length a && a.(!j) <> s do
        incr j
      done;
      sites.(p) <- (if !j < Array.length a then s else a.(0))
    end
  done

(* The pending slot of cell [ci], taking a fresh one (loaded with the
   committed position, orientation, variant, sites and C3) on first
   touch.  No entry point moves more than two cells. *)
let acquire t ci =
  let s = slot_of t ci in
  if s >= 0 then s
  else begin
    let s = t.n_pending in
    t.n_pending <- s + 1;
    t.sl_ci.(s) <- ci;
    t.sl_geom.(s) <- false;
    t.sl_c3.(s) <- t.cell_c3.(ci);
    let g = t.slots.(s) and cs = t.cells.(ci) in
    g.x <- cs.x;
    g.y <- cs.y;
    g.orient <- cs.orient;
    g.variant <- cs.variant;
    copy_ints cs.sites 0 g.sites 0 (Array.length cs.sites);
    s
  end

(* The C1 and TEIL chains of a move of cell [ci]: net by net in
   [cell_nets] order, the net's last value out (evaluated earlier in this
   evaluation, else committed) and its new value in: its rescan at the
   pending pin positions, or, with [~moved_only] and no pin of the net
   moved, the last value itself, which is what the rescan would give. *)
let sim_nets t ci ~moved_only =
  let nets = t.cell_nets.(ci) and a = t.acc and stamp = t.sim_stamp in
  for k = 0 to Array.length nets - 1 do
    let n = nets.(k) in
    let seen = t.sim_net_stamp.(n) = stamp in
    a.(k_c1) <- a.(k_c1) -. (if seen then t.sim_c1.(n) else t.net_c1.(n));
    a.(k_teil) <- a.(k_teil) -. (if seen then t.sim_len.(n) else t.net_len.(n));
    if (not moved_only) || t.moved_net_stamp.(n) = stamp then
      net_cost t n ~pending:true t.sim_c1 t.sim_len
    else if not seen then begin
      t.sim_c1.(n) <- t.net_c1.(n);
      t.sim_len.(n) <- t.net_len.(n)
    end;
    t.sim_net_stamp.(n) <- stamp;
    a.(k_c1) <- a.(k_c1) +. t.sim_c1.(n);
    a.(k_teil) <- a.(k_teil) +. t.sim_len.(n)
  done

(* The C3 chain of pending slot [s]: its last C3 out, the recount in. *)
let sim_c3 t s ci =
  let a = t.acc in
  let g = t.slots.(s) in
  a.(k_c3) <- a.(k_c3) -. t.sl_c3.(s);
  c3_into t ci ~variant:g.variant g.sites t.sl_c3 s;
  a.(k_c3) <- a.(k_c3) +. t.sl_c3.(s)

(* A pin-site move: the pins, nets and C3 change, the geometry does not.
   It is the first and only move of its evaluation, so the evaluation held
   every pin at its committed site, and only the nets of the uncommitted
   pins whose site changed are rescanned. *)
let sim_sites_move t ci sites =
  let s = acquire t ci in
  let g = t.slots.(s) in
  set_sites t ci ~variant:g.variant g.sites sites;
  let pins = t.nl.Netlist.cells.(ci).Cell.pins
  and committed = t.cells.(ci).sites
  and unc = t.uncommitted.(ci) in
  for j = 0 to Array.length unc - 1 do
    let p = unc.(j) in
    if g.sites.(p) <> committed.(p) then
      t.moved_net_stamp.(pins.(p).Pin.net) <- t.sim_stamp
  done;
  refresh_pins t ci g;
  sim_nets t ci ~moved_only:true;
  sim_c3 t s ci

(* The "before" terms of a move of cell [ci], in the state the
   evaluation holds it in: returns its overlap, and leaves its share of
   each constraint in [cons_of_cell.(ci)] in [share_old], or, when
   nothing is pending, in [memo_share].  Taken before the slot is
   rewritten, so an interchange of [ci] with itself starts its second
   move from the first one's result.  A move that starts from the
   committed state reads them from the memo, which holds them for one
   cell and one [version]: the rungs of a rescue ladder share them, and
   any mutation invalidates them. *)
let before_terms t ci =
  let ks = t.cons_of_cell.(ci) in
  if t.n_pending = 0 then begin
    if t.memo_ci <> ci || t.memo_version <> t.version then begin
      let before = t.cells.(ci) in
      t.memo_ov <- overlap t ci before ~pending:false;
      for j = 0 to Array.length ks - 1 do
        t.memo_share.(j) <- share t ks.(j) ci before
      done;
      t.memo_ci <- ci;
      t.memo_version <- t.version
    end;
    t.memo_ov
  end
  else begin
    let before = eval_state t ci in
    for j = 0 to Array.length ks - 1 do
      t.share_old.(j) <- share t ks.(j) ci before
    done;
    overlap t ci before ~pending:true
  end

(* A move of cell [ci] to position [(x, y)], orientation [orient] and
   variant [variant], with [sites] when given: its nets, its overlap
   before and after, its C3 when the variant or the sites change, and the
   constraints that name it.  A value equal to the one the evaluation
   holds the cell at leaves that field as it is. *)
let sim_cell_move t ci ~x ~y ~orient ~variant ~sites =
  let a = t.acc in
  let shares = if t.n_pending = 0 then t.memo_share else t.share_old in
  let ov_old = before_terms t ci in
  let ks = t.cons_of_cell.(ci) in
  let s = acquire t ci in
  let g = t.slots.(s) in
  let variant_changed = variant <> g.variant in
  g.x <- x;
  g.y <- y;
  g.orient <- orient;
  g.variant <- variant;
  let sites_given =
    match sites with
    | Some v ->
        set_sites t ci ~variant g.sites v;
        true
    | None ->
        if variant_changed then
          reclamp_sites t ci ~variant g.sites
            (Array.length t.pin_committed.(ci));
        false
  in
  refresh_geometry t ci g;
  t.sl_geom.(s) <- true;
  sim_nets t ci ~moved_only:false;
  let ov_new = overlap t ci g ~pending:true in
  a.(k_c2) <- a.(k_c2) -. float_of_int ov_old +. float_of_int ov_new;
  if variant_changed || sites_given then sim_c3 t s ci;
  let stamp = t.sim_stamp in
  for j = 0 to Array.length ks - 1 do
    let k = ks.(j) in
    let prior =
      if t.sim_cpen_stamp.(k) = stamp then t.sim_cpen.(k) else t.cpen.(k)
    in
    (* Penalties are exact integers: the prior one less [ci]'s old share
       plus its new one is what a full evaluation would return. *)
    let old = shares.(j) in
    let v =
      float_of_int
        (if old < 0 then eval_constraint_pending t k
         else int_of_float prior - old + share t k ci g)
    in
    a.(k_c4) <- a.(k_c4) -. prior +. v;
    t.sim_cpen.(k) <- v;
    t.sim_cpen_stamp.(k) <- stamp
  done

(* Every evaluation starts from the committed accumulators with nothing
   pending, and ends with the cost change of what it evaluated. *)
let[@inline] begin_eval t =
  t.evaluated <- -1;
  t.n_pending <- 0;
  t.sim_stamp <- t.sim_stamp + 1;
  copy_floats t.tot t.acc 5

let[@inline] end_eval t =
  t.evaluated <- t.version;
  cost_of t t.acc -. cost_of t t.tot

(* The three entry points.  The second move of an interchange runs its
   chains from the state the first one left, on the operands a commit of
   the first would leave, so an interchange and its two moves committed
   one at a time give the same floats bit for bit. *)
let delta_cell t ci ~x ~y ~orient ~variant =
  begin_eval t;
  sim_cell_move t ci ~x ~y ~orient ~variant ~sites:None;
  end_eval t

let delta_interchange t i j ~orient_i ~orient_j =
  begin_eval t;
  let gi = t.cells.(i) and gj = t.cells.(j) in
  let xi = gi.x and yi = gi.y and xj = gj.x and yj = gj.y in
  let vi = gi.variant and vj = gj.variant in
  sim_cell_move t i ~x:xj ~y:yj ~orient:orient_i ~variant:vi ~sites:None;
  sim_cell_move t j ~x:xi ~y:yi ~orient:orient_j ~variant:vj ~sites:None;
  end_eval t

let delta_sites t ci sites =
  begin_eval t;
  sim_sites_move t ci sites;
  end_eval t

let commit t =
  if t.evaluated <> t.version then
    invalid_arg "Placement.commit: no evaluation of the current placement";
  let stamp = t.sim_stamp in
  for s = 0 to t.n_pending - 1 do
    let ci = t.sl_ci.(s) in
    let g = t.slots.(s) and cs = t.cells.(ci) in
    cs.x <- g.x;
    cs.y <- g.y;
    cs.orient <- g.orient;
    cs.variant <- g.variant;
    copy_ints g.sites 0 cs.sites 0 (Array.length cs.sites);
    copy_ints g.pp 0 cs.pp 0 (Array.length cs.pp);
    if t.sl_geom.(s) then begin
      cs.n_tiles <- g.n_tiles;
      copy_ints g.abs 0 cs.abs 0 (4 * g.n_tiles);
      copy_ints g.exp 0 cs.exp 0 (4 * g.n_tiles);
      copy_ints g.bb 0 cs.bb 0 4;
      index_update t ci cs
    end;
    t.cell_c3.(ci) <- t.sl_c3.(s);
    let nets = t.cell_nets.(ci) in
    for k = 0 to Array.length nets - 1 do
      let n = nets.(k) in
      t.net_c1.(n) <- t.sim_c1.(n);
      t.net_len.(n) <- t.sim_len.(n)
    done;
    let ks = t.cons_of_cell.(ci) in
    for j = 0 to Array.length ks - 1 do
      let k = ks.(j) in
      if t.sim_cpen_stamp.(k) = stamp then t.cpen.(k) <- t.sim_cpen.(k)
    done
  done;
  copy_floats t.acc t.tot 5;
  t.n_pending <- 0;
  touch t

(* One move, evaluated and committed: a move that raises does so in the
   evaluation, before the placement changes.  Given only [sites], it is a
   pin-site move, whose overlap and constraint chains would subtract and
   add back the same integers; otherwise each field not given keeps its
   committed value. *)
let set_cell t ci ?x ?y ?orient ?variant ?sites () =
  begin_eval t;
  (match (x, y, orient, variant, sites) with
  | None, None, None, None, Some sites -> sim_sites_move t ci sites
  | _ ->
      let cs = t.cells.(ci) in
      let get v default = match v with Some v -> v | None -> default in
      sim_cell_move t ci ~x:(get x cs.x) ~y:(get y cs.y)
        ~orient:(get orient cs.orient) ~variant:(get variant cs.variant)
        ~sites);
  ignore (end_eval t);
  commit t

(* ------------------------------------------------------------------ *)
(* Cost snapshots                                                      *)

type cost_snapshot = float array

let snapshot_cost t = Array.copy t.tot

let restore_cost t s =
  touch t;
  copy_floats s t.tot 5

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

let drift_report t =
  let c1 = c1 t and c2 = c2_raw t and c3 = c3 t and c4 = c4 t
  and teil = teil t in
  recompute_all t;
  let close a b =
    Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  List.filter_map
    (fun (term, cached, truth) ->
      if close cached truth then None else Some (term, cached, truth))
    [ ("C1", c1, t.tot.(k_c1)); ("C2", c2, t.tot.(k_c2));
      ("C3", c3, t.tot.(k_c3)); ("C4", c4, t.tot.(k_c4));
      ("TEIL", teil, t.tot.(k_teil)) ]

let verify_consistency t =
  match drift_report t with
  | [] -> ()
  | (term, cached, truth) :: _ ->
      failwith (Printf.sprintf "%s drift: cached %g vs true %g" term cached truth)

let verify_index t =
  let n = Array.length t.cells in
  Array.iteri
    (fun ci cs ->
      if Array.sub t.bbs (4 * ci) 4 <> cs.bb then
        failwith
          (Printf.sprintf "Placement.verify_index: cell %d packed bbox stale"
             ci))
    t.cells;
  match t.idx with
  | None -> ()
  | Some idx ->
      if Spatial.length idx <> n then
        failwith
          (Printf.sprintf "Placement.verify_index: %d entries for %d cells"
             (Spatial.length idx) n);
      Array.iteri
        (fun ci cs ->
          if not (Spatial.mem idx ci) then
            failwith
              (Printf.sprintf "Placement.verify_index: cell %d missing" ci);
          if not (Rect.equal (Spatial.rect_of idx ci) (bbox_rect cs)) then
            failwith
              (Printf.sprintf "Placement.verify_index: cell %d bbox stale" ci))
        t.cells;
      (* Query equivalence against a from-scratch rebuild. *)
      let fresh = make_grid t.core n in
      Array.iteri (fun ci cs -> Spatial.insert fresh ci (bbox_rect cs)) t.cells;
      Array.iteri
        (fun ci cs ->
          let a = List.sort Int.compare (Spatial.query idx (bbox_rect cs))
          and b = List.sort Int.compare (Spatial.query fresh (bbox_rect cs)) in
          if a <> b then
            failwith
              (Printf.sprintf
                 "Placement.verify_index: query mismatch at cell %d" ci))
        t.cells
