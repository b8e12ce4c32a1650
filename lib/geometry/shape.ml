type t = { tiles : Rect.t list; bbox : Rect.t; area : int }

let compute_bbox = function
  | [] -> Rect.empty
  | r :: rest -> List.fold_left Rect.hull r rest

let of_tiles tiles =
  if List.is_empty tiles then invalid_arg "Shape.of_tiles: empty tile list";
  if List.exists Rect.is_empty tiles then
    invalid_arg "Shape.of_tiles: empty tile";
  if not (Rect.pairwise_disjoint tiles) then
    invalid_arg "Shape.of_tiles: overlapping tiles";
  { tiles;
    bbox = compute_bbox tiles;
    area = List.fold_left (fun a r -> a + Rect.area r) 0 tiles }

let rectangle ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Shape.rectangle: nonpositive dims";
  of_tiles [ Rect.make ~x0:0 ~y0:0 ~x1:w ~y1:h ]

let l_shape ~w ~h ~notch_w ~notch_h =
  if notch_w <= 0 || notch_h <= 0 || notch_w >= w || notch_h >= h then
    invalid_arg "Shape.l_shape: notch must be strictly inside";
  of_tiles
    [ Rect.make ~x0:0 ~y0:0 ~x1:w ~y1:(h - notch_h);
      Rect.make ~x0:0 ~y0:(h - notch_h) ~x1:(w - notch_w) ~y1:h ]

let t_shape ~w ~h ~stem_w ~stem_h =
  if stem_w <= 0 || stem_w >= w || stem_h <= 0 || stem_h >= h then
    invalid_arg "Shape.t_shape: stem must be strictly inside";
  let x0 = (w - stem_w) / 2 in
  of_tiles
    [ Rect.make ~x0:0 ~y0:0 ~x1:w ~y1:stem_h;
      Rect.make ~x0 ~y0:stem_h ~x1:(x0 + stem_w) ~y1:h ]

let u_shape ~w ~h ~notch_w ~notch_h =
  if notch_w <= 0 || notch_h <= 0 || notch_w >= w - 1 || notch_h >= h then
    invalid_arg "Shape.u_shape: notch must leave both arms";
  let nx0 = (w - notch_w) / 2 in
  let nx1 = nx0 + notch_w in
  of_tiles
    [ Rect.make ~x0:0 ~y0:0 ~x1:w ~y1:(h - notch_h);
      Rect.make ~x0:0 ~y0:(h - notch_h) ~x1:nx0 ~y1:h;
      Rect.make ~x0:nx1 ~y0:(h - notch_h) ~x1:w ~y1:h ]

let tiles s = s.tiles
let area s = s.area
let bbox s = s.bbox
let width s = Rect.width s.bbox
let height s = Rect.height s.bbox

(* The exposed part of a tile side is its span minus the spans of the tiles
   abutting it from the outside.  Tiles are disjoint, so only tiles whose
   facing side lies exactly on the same line can cover material. *)
let boundary_edges s =
  let raw =
    List.concat_map
      (fun (r : Rect.t) ->
        let covers_right (o : Rect.t) =
          o.Rect.x0 = r.Rect.x1 && Interval.overlaps (Rect.yspan o) (Rect.yspan r)
        and covers_left (o : Rect.t) =
          o.Rect.x1 = r.Rect.x0 && Interval.overlaps (Rect.yspan o) (Rect.yspan r)
        and covers_top (o : Rect.t) =
          o.Rect.y0 = r.Rect.y1 && Interval.overlaps (Rect.xspan o) (Rect.xspan r)
        and covers_bottom (o : Rect.t) =
          o.Rect.y1 = r.Rect.y0 && Interval.overlaps (Rect.xspan o) (Rect.xspan r)
        in
        let others = List.filter (fun o -> not (Rect.equal o r)) s.tiles in
        let cut pred span_of =
          List.filter pred others |> List.map span_of
        in
        let seg dir pos side spans cuts =
          Interval.subtract spans cuts
          |> List.map (fun span -> Edge.make dir ~pos ~span ~side)
        in
        seg Edge.V r.Rect.x1 Edge.High (Rect.yspan r) (cut covers_right Rect.yspan)
        @ seg Edge.V r.Rect.x0 Edge.Low (Rect.yspan r) (cut covers_left Rect.yspan)
        @ seg Edge.H r.Rect.y1 Edge.High (Rect.xspan r) (cut covers_top Rect.xspan)
        @ seg Edge.H r.Rect.y0 Edge.Low (Rect.xspan r) (cut covers_bottom Rect.xspan))
      s.tiles
  in
  (* Merge collinear touching segments with the same direction and side. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (e : Edge.t) ->
      let key = (e.Edge.dir, e.Edge.pos, e.Edge.side) in
      Hashtbl.replace groups key
        (e.Edge.span :: (try Hashtbl.find groups key with Not_found -> [])))
    raw;
  Hashtbl.fold
    (fun (dir, pos, side) spans acc ->
      let spans = List.sort Interval.compare spans in
      let merged =
        List.fold_left
          (fun acc (sp : Interval.t) ->
            match acc with
            | (last : Interval.t) :: rest when last.Interval.hi = sp.Interval.lo ->
                Interval.hull last sp :: rest
            | _ -> sp :: acc)
          [] spans
      in
      List.rev_map (fun span -> Edge.make dir ~pos ~span ~side) merged @ acc)
    groups []
  |> List.sort Edge.compare

let perimeter s =
  List.fold_left (fun acc e -> acc + Edge.length e) 0 (boundary_edges s)

let transform o s =
  let tiles = List.map (Orient.apply_rect o) s.tiles in
  { tiles;
    bbox = compute_bbox tiles;
    area = s.area }

let translate s ~dx ~dy =
  { s with
    tiles = List.map (fun r -> Rect.translate r ~dx ~dy) s.tiles;
    bbox = Rect.translate s.bbox ~dx ~dy }

let contains_point s p = List.exists (fun r -> Rect.contains_point r p) s.tiles

let overlap_area a b =
  if not (Rect.overlaps a.bbox b.bbox) then 0
  else
    List.fold_left
      (fun acc ta ->
        List.fold_left (fun acc tb -> acc + Rect.inter_area ta tb) acc b.tiles)
      0 a.tiles

let pp ppf s =
  Format.fprintf ppf "@[<v>shape area=%d bbox=%a@,%a@]" s.area Rect.pp s.bbox
    (Format.pp_print_list Rect.pp)
    s.tiles
