open Twmc_geometry
open Twmc_netlist
module Rng = Twmc_sa.Rng
module Anneal = Twmc_sa.Anneal

(* Move-class indices for the per-class efficacy counters: every Metropolis
   trial is tagged with the proposal class that produced it, giving
   attempt/accept/Δcost totals per class (the paper's generate-function
   traffic broken down by move type). *)
let cls_displace = 0
let cls_displace_inverted = 1
let cls_orient = 2
let cls_interchange = 3
let cls_interchange_inverted = 4
let cls_pin = 5
let cls_variant = 6
let n_classes = 7

let class_name = function
  | 0 -> "displace"
  | 1 -> "displace_inverted"
  | 2 -> "orient"
  | 3 -> "interchange"
  | 4 -> "interchange_inverted"
  | 5 -> "pin"
  | 6 -> "variant"
  | _ -> invalid_arg "Moves.class_name"

type stats = {
  mutable attempts : int;
  mutable displacements : int;
  mutable aspect_rescues : int;
  mutable orient_changes : int;
  mutable interchanges : int;
  mutable interchange_rescues : int;
  mutable pin_moves : int;
  mutable variant_changes : int;
  class_attempts : int array;
  class_accepts : int array;
  (* A float array, not mutable float fields: unboxed stores keep the
     accumulation allocation-free on the per-move path. *)
  class_dcost : float array;
}

let make_stats () =
  { attempts = 0;
    displacements = 0;
    aspect_rescues = 0;
    orient_changes = 0;
    interchanges = 0;
    interchange_rescues = 0;
    pin_moves = 0;
    variant_changes = 0;
    class_attempts = Array.make n_classes 0;
    class_accepts = Array.make n_classes 0;
    class_dcost = Array.make n_classes 0.0 }

type ctx = {
  p : Placement.t;
  limiter : Range_limiter.t;
  stats : stats;
  refine : bool;
  prob_displacement : float;
  (* Hard constraints on the proposal side: fixed cells admit no geometric
     move, region-locked cells are repaired into (and vetoed outside)
     their rectangle.  [constrained] short-circuits every check away on
     unconstrained netlists. *)
  constrained : bool;
  fixed : bool array;
  region : Rect.t option array;
  (* Per cell, what proposals would otherwise rebuild every time: the
     custom flag, the uncommitted-pin count, the pin groups (members in
     [Sites.group_members] order) and lone uncommitted pins, and the
     proposal buffer a pin move fills. *)
  custom : bool array;
  n_uncommitted : int array;
  groups : int array array array;
  lone : int array array;
  sites_buf : int array array;
  (* Per cell and variant, per site: the first site and the site count of
     its edge ([Sites.edge_ranges] of the site's edge). *)
  edge_start : int array array array;
  edge_len : int array array array;
}

let make_ctx ?(refine = false) ~placement ~limiter ~stats () =
  let r = (Placement.params placement).Params.r_ratio in
  let nl = Placement.netlist placement in
  let n = Netlist.n_cells nl in
  let fixed = Array.make n false and region = Array.make n None in
  Array.iter
    (function
      | Constr.Fixed { cell; _ } -> fixed.(cell) <- true
      | Constr.Region { cell; rect } ->
          region.(cell) <-
            (match region.(cell) with
            | None -> Some rect
            | Some r ->
                let i = Rect.inter r rect in
                if Rect.is_empty i then Some r else Some i)
      | _ -> ())
    nl.Netlist.constraints;
  let constrained =
    Array.exists Fun.id fixed || Array.exists Option.is_some region
  in
  let cells = nl.Netlist.cells in
  let per_site f =
    Array.map
      (fun (c : Cell.t) ->
        Array.map
          (fun (v : Cell.variant) ->
            let ranges = Sites.edge_ranges v in
            Array.map
              (fun (s : Pin_site.t) -> f ranges.(s.Pin_site.edge))
              v.Cell.sites)
          c.Cell.variants)
      cells
  in
  { p = placement;
    limiter;
    stats;
    refine;
    prob_displacement = (if refine then 1.0 else r /. (r +. 1.0));
    constrained;
    fixed;
    region;
    custom = Array.map (fun (c : Cell.t) -> c.Cell.kind = Cell.Custom) cells;
    n_uncommitted =
      Array.map
        (fun (c : Cell.t) ->
          Array.fold_left
            (fun acc (p : Pin.t) -> if Pin.is_committed p then acc else acc + 1)
            0 c.Cell.pins)
        cells;
    groups =
      Array.map
        (fun c ->
          Array.of_list
            (List.map (fun (_, m) -> Array.of_list m) (Sites.group_members c)))
        cells;
    lone = Array.map (fun c -> Array.of_list (Sites.lone_uncommitted c)) cells;
    sites_buf = Array.map (fun c -> Array.make (Cell.n_pins c) (-1)) cells;
    edge_start = per_site fst;
    edge_len = per_site snd }

let placement ctx = ctx.p
let limiter ctx = ctx.limiter
let stats ctx = ctx.stats
let with_limiter ctx limiter = { ctx with limiter }

(* A proposal a hard constraint forbids: any geometric change of a fixed
   cell, or a target center [(x, y)] outside a region lock
   ([Rect.contains_point]).  Every cell move the ladder proposes is
   geometric; a pin-site move is never vetoed. *)
let vetoed ctx ci ~x ~y =
  ctx.fixed.(ci)
  ||
  match ctx.region.(ci) with
  | None -> false
  | Some r ->
      not (x >= r.Rect.x0 && x < r.Rect.x1 && y >= r.Rect.y0 && y < r.Rect.y1)

(* The Metropolis test of an evaluated change [delta] and, on acceptance,
   the commit of the evaluated state: each move is evaluated once, and
   rejected proposals — the vast majority at low temperature — never
   mutate the placement, its net caches or the spatial index.  The
   [Placement] evaluations compute the same float a mutate-then-difference
   trial would, so acceptance decisions and RNG consumption are
   unchanged.  [cls] tags the trial for the per-class efficacy counters
   (array stores only).  Returns acceptance. *)
let decide ctx rng ~cls ~temp delta =
  if Anneal.metropolis rng ~t:temp ~delta then begin
    let s = ctx.stats in
    Placement.commit ctx.p;
    s.class_accepts.(cls) <- s.class_accepts.(cls) + 1;
    s.class_dcost.(cls) <- s.class_dcost.(cls) +. delta;
    true
  end
  else false

let count_attempt ctx cls =
  ctx.stats.class_attempts.(cls) <- ctx.stats.class_attempts.(cls) + 1

(* One cell to [(x, y)], [orient] and [variant].  A constraint veto counts
   the attempt but evaluates no cost and consumes no Metropolis draw.
   Proposals are plain ints and constructors: nothing here allocates but
   the evaluation's boxed result. *)
let trial_cell ctx rng ~cls ~temp ~cell ~x ~y ~orient ~variant =
  count_attempt ctx cls;
  if ctx.constrained && vetoed ctx cell ~x ~y then false
  else
    decide ctx rng ~cls ~temp
      (Placement.delta_cell ctx.p cell ~x ~y ~orient ~variant)

let random_cell ctx rng = Rng.int_incl rng 0 (Netlist.n_cells (Placement.netlist ctx.p) - 1)

(* [max lo (min hi v)] on ints. *)
let clamp (lo : int) hi v =
  let m = if hi <= v then hi else v in
  if lo >= m then lo else m

(* The displacement target of cell [ci] by [dx] (by [dy]): clamped into
   the core and, for a region-locked cell, repaired (not rejected) into
   the region, so the ladder keeps proposing useful moves. *)
let target_x ctx ci dx =
  let core = Placement.core ctx.p in
  let x = clamp core.Rect.x0 core.Rect.x1 (Placement.cell_x ctx.p ci + dx) in
  match ctx.region.(ci) with
  | None -> x
  | Some r -> clamp r.Rect.x0 (r.Rect.x1 - 1) x

let target_y ctx ci dy =
  let core = Placement.core ctx.p in
  let y = clamp core.Rect.y0 core.Rect.y1 (Placement.cell_y ctx.p ci + dy) in
  match ctx.region.(ci) with
  | None -> y
  | Some r -> clamp r.Rect.y0 (r.Rect.y1 - 1) y

(* A_1(i, x, y): displacement at current orientation. *)
let attempt_displacement ctx rng ~temp ~cell ~x ~y =
  trial_cell ctx rng ~cls:cls_displace ~temp ~cell ~x ~y
    ~orient:(Placement.cell_orient ctx.p cell)
    ~variant:(Placement.cell_variant ctx.p cell)

(* A'(i, x, y): displacement with the aspect ratio inverted (Fig 2). *)
let attempt_displacement_inverted ctx rng ~temp ~cell ~x ~y =
  trial_cell ctx rng ~cls:cls_displace_inverted ~temp ~cell ~x ~y
    ~orient:(Orient.aspect_inversion_of (Placement.cell_orient ctx.p cell))
    ~variant:(Placement.cell_variant ctx.p cell)

(* The orientations other than each one, in [Orient.all] order, indexed
   by [Orient.to_int]. *)
let other_orients =
  Array.init 8 (fun i ->
      Array.of_list
        (List.filter
           (fun o' -> not (Orient.equal (Orient.of_int i) o'))
           Orient.all))

(* A_0(i): random in-place orientation change. *)
let attempt_orient ctx rng ~temp ~cell =
  let p = ctx.p in
  let o = Placement.cell_orient p cell in
  let o' = Rng.pick rng other_orients.(Orient.to_int o) in
  trial_cell ctx rng ~cls:cls_orient ~temp ~cell ~x:(Placement.cell_x p cell)
    ~y:(Placement.cell_y p cell) ~orient:o'
    ~variant:(Placement.cell_variant p cell)

(* A_2(i, j): pairwise interchange of cell centers, with both aspect
   ratios inverted when [invert]. *)
let attempt_interchange ctx rng ~temp ~i ~j ~invert =
  let cls = if invert then cls_interchange_inverted else cls_interchange in
  let p = ctx.p in
  count_attempt ctx cls;
  if
    ctx.constrained
    && (vetoed ctx i ~x:(Placement.cell_x p j) ~y:(Placement.cell_y p j)
       || vetoed ctx j ~x:(Placement.cell_x p i) ~y:(Placement.cell_y p i))
  then false
  else
    let oi = Placement.cell_orient p i and oj = Placement.cell_orient p j in
    let orient_i = if invert then Orient.aspect_inversion_of oi else oi
    and orient_j = if invert then Orient.aspect_inversion_of oj else oj in
    decide ctx rng ~cls ~temp
      (Placement.delta_interchange p i j ~orient_i ~orient_j)

(* A_p(i): reassign one pin group or lone pin to fresh sites. *)
let attempt_pin_move ctx rng ~temp ~cell =
  let groups = ctx.groups.(cell) and lone = ctx.lone.(cell) in
  let n_groups = Array.length groups in
  let n_choices = n_groups + Array.length lone in
  if n_choices = 0 then false
  else begin
    let variant = Placement.cell_variant ctx.p cell in
    let choice = Rng.int_incl rng 0 (n_choices - 1) in
    (* The site picks draw from the RNG while building the proposal —
       before the Metropolis draw.  [Placement.delta_sites] copies the
       buffer, so it is reused by the next proposal. *)
    let sites = ctx.sites_buf.(cell) in
    for pin = 0 to Array.length sites - 1 do
      sites.(pin) <- Placement.site_of_pin ctx.p ~cell ~pin
    done;
    (if choice < n_groups then begin
       let members = groups.(choice) in
       if Array.length members > 0 then begin
         let allowed =
           Placement.allowed_sites ctx.p ~cell ~variant ~pin:members.(0)
         in
         if Array.length allowed > 0 then begin
           (* [Sites.assign_group] from the anchor on precomputed edge
              ranges. *)
           let anchor = Rng.pick rng allowed in
           let start = ctx.edge_start.(cell).(variant).(anchor)
           and len = ctx.edge_len.(cell).(variant).(anchor) in
           let off = anchor - start in
           for k = 0 to Array.length members - 1 do
             sites.(members.(k)) <- start + ((off + k) mod len)
           done
         end
       end
     end
     else
       let pin = lone.(choice - n_groups) in
       let allowed = Placement.allowed_sites ctx.p ~cell ~variant ~pin in
       if Array.length allowed > 0 then sites.(pin) <- Rng.pick rng allowed);
    count_attempt ctx cls_pin;
    let accepted =
      decide ctx rng ~cls:cls_pin ~temp (Placement.delta_sites ctx.p cell sites)
    in
    if accepted then ctx.stats.pin_moves <- ctx.stats.pin_moves + 1;
    accepted
  end

(* A_r(i): aspect-ratio / instance change to an adjacent variant. *)
let attempt_variant ctx rng ~temp ~cell =
  let nl = Placement.netlist ctx.p in
  let c = nl.Netlist.cells.(cell) in
  let nv = Cell.n_variants c in
  if nv < 2 then false
  else begin
    let v = Placement.cell_variant ctx.p cell in
    let v' =
      if v = 0 then 1
      else if v = nv - 1 then nv - 2
      else if Rng.bool_with_prob rng 0.5 then v - 1
      else v + 1
    in
    let p = ctx.p in
    let accepted =
      trial_cell ctx rng ~cls:cls_variant ~temp ~cell
        ~x:(Placement.cell_x p cell) ~y:(Placement.cell_y p cell)
        ~orient:(Placement.cell_orient p cell) ~variant:v'
    in
    if accepted then ctx.stats.variant_changes <- ctx.stats.variant_changes + 1;
    accepted
  end

let generate ctx rng ~temp =
  ctx.stats.attempts <- ctx.stats.attempts + 1;
  let prm = Placement.params ctx.p in
  if Rng.bool_with_prob rng ctx.prob_displacement then begin
    (* Single-cell displacement ladder. *)
    let i = random_cell ctx rng in
    let dx, dy =
      Range_limiter.select prm.Params.displacement_selector rng ctx.limiter
        ~temp
    in
    let x = target_x ctx i dx and y = target_y ctx i dy in
    if attempt_displacement ctx rng ~temp ~cell:i ~x ~y then
      ctx.stats.displacements <- ctx.stats.displacements + 1
    else if
      (not ctx.refine)
      && attempt_displacement_inverted ctx rng ~temp ~cell:i ~x ~y
    then ctx.stats.aspect_rescues <- ctx.stats.aspect_rescues + 1
    else if (not ctx.refine) && attempt_orient ctx rng ~temp ~cell:i then
      ctx.stats.orient_changes <- ctx.stats.orient_changes + 1;
    if ctx.custom.(i) then begin
      for _ = 1 to ctx.n_uncommitted.(i) do
        ignore (attempt_pin_move ctx rng ~temp ~cell:i)
      done;
      if not ctx.refine then ignore (attempt_variant ctx rng ~temp ~cell:i)
    end
  end
  else begin
    (* Pairwise interchange (not range-limited in TimberWolfMC). *)
    let i = random_cell ctx rng in
    let j = random_cell ctx rng in
    if i <> j then
      if attempt_interchange ctx rng ~temp ~i ~j ~invert:false then
        ctx.stats.interchanges <- ctx.stats.interchanges + 1
      else if attempt_interchange ctx rng ~temp ~i ~j ~invert:true then begin
        ctx.stats.interchanges <- ctx.stats.interchanges + 1;
        ctx.stats.interchange_rescues <- ctx.stats.interchange_rescues + 1
      end
  end
