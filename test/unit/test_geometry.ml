(* Unit and property tests for the geometry substrate. *)

open Twmc_geometry

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------ Interval *)

let test_interval_basics () =
  let i = Interval.make 2 7 in
  check "length" 5 (Interval.length i);
  checkb "contains lo" true (Interval.contains i 2);
  checkb "contains hi" false (Interval.contains i 7);
  checkb "empty" true (Interval.is_empty (Interval.make 3 3));
  check "empty length" 0 (Interval.length (Interval.make 3 3));
  Alcotest.check_raises "inverted" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (Interval.make 5 2))

let test_interval_inter () =
  let a = Interval.make 0 10 and b = Interval.make 5 15 in
  check "overlap" 5 (Interval.overlap a b);
  checkb "overlaps" true (Interval.overlaps a b);
  let c = Interval.make 10 20 in
  checkb "touching does not overlap" false (Interval.overlaps a c);
  checkb "touches" true (Interval.touches a c);
  checkb "disjoint no touch" false
    (Interval.touches (Interval.make 0 3) (Interval.make 5 9));
  check "hull" 20 (Interval.length (Interval.hull a c))

let test_interval_contains_interval () =
  let outer = Interval.make 0 10 in
  checkb "inner" true (Interval.contains_interval outer (Interval.make 2 8));
  checkb "equal" true (Interval.contains_interval outer outer);
  checkb "overhang" false
    (Interval.contains_interval outer (Interval.make 5 11));
  checkb "empty inner" true (Interval.contains_interval outer Interval.empty)

let test_interval_subtract () =
  let i = Interval.make 0 10 in
  (match Interval.subtract i [ Interval.make 3 5 ] with
  | [ a; b ] ->
      check "left piece" 3 (Interval.length a);
      check "right piece" 5 (Interval.length b)
  | _ -> Alcotest.fail "expected two pieces");
  (match Interval.subtract i [ Interval.make (-5) 15 ] with
  | [] -> ()
  | _ -> Alcotest.fail "full cover should erase");
  (* Overlapping, out-of-order cuts. *)
  match
    Interval.subtract i [ Interval.make 6 8; Interval.make 2 4; Interval.make 3 7 ]
  with
  | [ a; b ] ->
      checkb "first piece is [0,2)" true (Interval.equal a (Interval.make 0 2));
      checkb "second piece is [8,10)" true (Interval.equal b (Interval.make 8 10))
  | _ -> Alcotest.fail "expected two pieces after merge"

let interval_gen =
  QCheck.Gen.(
    map2
      (fun lo len -> Interval.make lo (lo + len))
      (int_range (-50) 50) (int_range 0 40))

let arb_interval = QCheck.make ~print:(Format.asprintf "%a" Interval.pp) interval_gen

let prop_subtract_partition =
  QCheck.Test.make ~name:"subtract pieces disjoint, inside, complement"
    ~count:300
    (QCheck.pair arb_interval (QCheck.list_of_size (QCheck.Gen.int_range 0 5) arb_interval))
    (fun (i, cuts) ->
      let pieces = Interval.subtract i cuts in
      (* Pieces lie inside i and avoid every cut. *)
      List.for_all (fun p -> Interval.contains_interval i p) pieces
      && List.for_all
           (fun p -> List.for_all (fun c -> not (Interval.overlaps p c)) cuts)
           pieces
      (* Every point of i not covered by a cut is in some piece. *)
      && (let covered x = List.exists (fun c -> Interval.contains c x) cuts in
          let in_piece x = List.exists (fun p -> Interval.contains p x) pieces in
          let ok = ref true in
          for x = i.Interval.lo to i.Interval.hi - 1 do
            if (not (covered x)) && not (in_piece x) then ok := false;
            if covered x && in_piece x then ok := false
          done;
          !ok))

let prop_inter_commutes =
  QCheck.Test.make ~name:"inter commutes and bounds" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (a, b) ->
      Interval.equal (Interval.inter a b) (Interval.inter b a)
      && Interval.overlap a b <= min (Interval.length a) (Interval.length b))

(* ---------------------------------------------------------------- Rect *)

let r ~x0 ~y0 ~x1 ~y1 = Rect.make ~x0 ~y0 ~x1 ~y1

let test_rect_basics () =
  let a = r ~x0:0 ~y0:0 ~x1:10 ~y1:5 in
  check "area" 50 (Rect.area a);
  check "width" 10 (Rect.width a);
  check "height" 5 (Rect.height a);
  checkb "contains" true (Rect.contains_point a (0, 0));
  checkb "high edge excluded" false (Rect.contains_point a (10, 0));
  let c = Rect.of_center_dims ~cx:0 ~cy:0 ~w:10 ~h:6 in
  Alcotest.(check (pair int int)) "center" (0, 0) (Rect.center c)

let test_rect_inter () =
  let a = r ~x0:0 ~y0:0 ~x1:10 ~y1:10 and b = r ~x0:5 ~y0:5 ~x1:15 ~y1:15 in
  check "inter area" 25 (Rect.inter_area a b);
  checkb "overlaps" true (Rect.overlaps a b);
  let c = r ~x0:10 ~y0:0 ~x1:20 ~y1:10 in
  checkb "edge share no overlap" false (Rect.overlaps a c);
  checkb "edge share touches" true (Rect.touches a c);
  let d = r ~x0:10 ~y0:10 ~x1:20 ~y1:20 in
  checkb "corner touches" true (Rect.touches a d);
  checkb "disjoint" false (Rect.touches a (r ~x0:11 ~y0:11 ~x1:12 ~y1:12))

let test_rect_expand () =
  let a = r ~x0:0 ~y0:0 ~x1:10 ~y1:10 in
  let e = Rect.expand a ~left:1 ~right:2 ~bottom:3 ~top:4 in
  check "expanded area" ((10 + 3) * (10 + 7)) (Rect.area e);
  checkb "shrink to empty" true
    (Rect.is_empty (Rect.expand a ~left:(-6) ~right:(-6) ~bottom:0 ~top:0));
  check "uniform" (14 * 14) (Rect.area (Rect.expand_uniform a 2))

let test_rect_disjoint () =
  let tiles =
    [ r ~x0:0 ~y0:0 ~x1:10 ~y1:10; r ~x0:10 ~y0:0 ~x1:20 ~y1:10 ]
  in
  checkb "pairwise disjoint" true (Rect.pairwise_disjoint tiles);
  check "union area" 200 (Rect.disjoint_union_area tiles);
  checkb "overlap detected" false
    (Rect.pairwise_disjoint [ r ~x0:0 ~y0:0 ~x1:10 ~y1:10; r ~x0:5 ~y0:5 ~x1:8 ~y1:8 ])

let rect_gen =
  QCheck.Gen.(
    map
      (fun (x0, y0, w, h) -> r ~x0 ~y0 ~x1:(x0 + w) ~y1:(y0 + h))
      (quad (int_range (-40) 40) (int_range (-40) 40) (int_range 0 30)
         (int_range 0 30)))

let arb_rect = QCheck.make ~print:(Format.asprintf "%a" Rect.pp) rect_gen

let prop_rect_inter =
  QCheck.Test.make ~name:"rect intersection bounds and symmetry" ~count:500
    (QCheck.pair arb_rect arb_rect)
    (fun (a, b) ->
      Rect.inter_area a b = Rect.inter_area b a
      && Rect.inter_area a b <= min (Rect.area a) (Rect.area b)
      && Rect.contains_rect (Rect.hull a b) a)

let prop_rect_translate =
  QCheck.Test.make ~name:"translate preserves area and dims" ~count:300
    (QCheck.triple arb_rect QCheck.small_signed_int QCheck.small_signed_int)
    (fun (a, dx, dy) ->
      let b = Rect.translate a ~dx ~dy in
      Rect.area a = Rect.area b && Rect.width a = Rect.width b)

(* [Rect], [Interval] and [Edge] compare their ints field by field; they
   must give what [Stdlib.compare] gives the records, whose fields are in
   the compared order.  Fields of 0-2 make ties in every position. *)
let prop_compare_orders =
  let small = QCheck.Gen.int_range 0 2 in
  let rect =
    QCheck.Gen.map
      (fun (x0, y0, x1, y1) -> { Rect.x0; y0; x1; y1 })
      (QCheck.Gen.quad small small small small)
  in
  let interval = QCheck.Gen.map2 (fun lo hi -> { Interval.lo; hi }) small small in
  let edge =
    QCheck.Gen.map
      (fun (h, pos, span, low) ->
        { Edge.dir = (if h then Edge.H else Edge.V);
          pos;
          span;
          side = (if low then Edge.Low else Edge.High) })
      (QCheck.Gen.quad QCheck.Gen.bool small interval QCheck.Gen.bool)
  in
  QCheck.Test.make ~name:"compare and equal agree with Stdlib.compare" ~count:2000
    (QCheck.make
       QCheck.Gen.(pair (pair rect rect) (pair (pair interval interval) (pair edge edge))))
    (fun ((r1, r2), ((i1, i2), (e1, e2))) ->
      Rect.compare r1 r2 = Stdlib.compare r1 r2
      && Rect.equal r1 r2 = (Stdlib.compare r1 r2 = 0)
      && Interval.compare i1 i2 = Stdlib.compare i1 i2
      && Interval.equal i1 i2 = (Stdlib.compare i1 i2 = 0)
      && Edge.compare e1 e2 = Stdlib.compare e1 e2
      && Edge.equal e1 e2 = (Stdlib.compare e1 e2 = 0))

(* -------------------------------------------------------------- Orient *)

let test_orient_group () =
  List.iter
    (fun o ->
      let i = Orient.inverse o in
      checkb "inverse" true (Orient.equal (Orient.compose i o) Orient.R0);
      checkb "inverse right" true (Orient.equal (Orient.compose o i) Orient.R0))
    Orient.all;
  (* Associativity over all 512 triples. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              checkb "assoc" true
                (Orient.equal
                   (Orient.compose (Orient.compose a b) c)
                   (Orient.compose a (Orient.compose b c))))
            Orient.all)
        Orient.all)
    Orient.all

let test_orient_action () =
  Alcotest.(check (pair int int)) "R90" (-2, 1) (Orient.apply Orient.R90 (1, 2));
  Alcotest.(check (pair int int)) "FX" (1, -2) (Orient.apply Orient.FX (1, 2));
  Alcotest.(check (pair int int)) "FX90" (2, 1) (Orient.apply Orient.FX90 (1, 2));
  (* compose a b acts as a after b on points *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let p = (3, 7) in
          Alcotest.(check (pair int int))
            "compose action" (Orient.apply a (Orient.apply b p))
            (Orient.apply (Orient.compose a b) p))
        Orient.all)
    Orient.all

let test_orient_swaps () =
  check "4 orientations swap axes" 4
    (List.length (List.filter Orient.swaps_axes Orient.all));
  List.iter
    (fun o ->
      checkb "aspect inversion flips parity" true
        (Orient.swaps_axes (Orient.aspect_inversion_of o) <> Orient.swaps_axes o))
    Orient.all;
  List.iter
    (fun o ->
      checkb "int roundtrip" true
        (Orient.equal o (Orient.of_int (Orient.to_int o)));
      checkb "string roundtrip" true
        (Orient.equal o (Option.get (Orient.of_string (Orient.to_string o)))))
    Orient.all

(* The table behind [aspect_inversion_of] against its definition. *)
let test_orient_inversion_table () =
  List.iter
    (fun o ->
      checkb
        (Printf.sprintf "aspect_inversion_of %s = compose FX90 %s"
           (Orient.to_string o) (Orient.to_string o))
        true
        (Orient.equal (Orient.aspect_inversion_of o)
           (Orient.compose Orient.FX90 o)))
    Orient.all

let test_orient_rect () =
  let a = r ~x0:1 ~y0:2 ~x1:4 ~y1:8 in
  List.iter
    (fun o ->
      let b = Orient.apply_rect o a in
      check "area preserved" (Rect.area a) (Rect.area b);
      if Orient.swaps_axes o then check "dims swap" (Rect.width a) (Rect.height b)
      else check "dims keep" (Rect.width a) (Rect.width b))
    Orient.all

(* ---------------------------------------------------------------- Edge *)

let test_edge_faces () =
  let left_cell_right_edge =
    Edge.make Edge.V ~pos:10 ~span:(Interval.make 0 20) ~side:Edge.High
  in
  let right_cell_left_edge =
    Edge.make Edge.V ~pos:30 ~span:(Interval.make 5 25) ~side:Edge.Low
  in
  checkb "faces" true (Edge.faces left_cell_right_edge right_cell_left_edge);
  checkb "faces symmetric" true (Edge.faces right_cell_left_edge left_cell_right_edge);
  check "gap" 20 (Edge.gap left_cell_right_edge right_cell_left_edge);
  check "common span" 15
    (Interval.length (Edge.common_span left_cell_right_edge right_cell_left_edge));
  (* Wrong ordering: edges back to back. *)
  let e1 = Edge.make Edge.V ~pos:30 ~span:(Interval.make 0 20) ~side:Edge.High in
  let e2 = Edge.make Edge.V ~pos:10 ~span:(Interval.make 0 20) ~side:Edge.Low in
  checkb "back to back" false (Edge.faces e1 e2);
  (* Same side never faces. *)
  checkb "same side" false
    (Edge.faces left_cell_right_edge
       (Edge.make Edge.V ~pos:30 ~span:(Interval.make 0 20) ~side:Edge.High))

let test_edge_transform () =
  let e = Edge.make Edge.V ~pos:5 ~span:(Interval.make 2 10) ~side:Edge.High in
  List.iter
    (fun o ->
      let e' = Edge.transform o e in
      check "length preserved" (Edge.length e) (Edge.length e');
      let back = Edge.transform (Orient.inverse o) e' in
      checkb "roundtrip" true (Edge.equal e back))
    Orient.all;
  (* R90 maps a right edge (V, High) to a top edge (H, High). *)
  let e' = Edge.transform Orient.R90 e in
  checkb "R90 direction" true (e'.Edge.dir = Edge.H);
  checkb "R90 side" true (e'.Edge.side = Edge.High)

(* --------------------------------------------------------------- Shape *)

let test_shape_rectangle () =
  let s = Shape.rectangle ~w:10 ~h:6 in
  check "area" 60 (Shape.area s);
  check "perimeter" 32 (Shape.perimeter s);
  check "edges" 4 (List.length (Shape.boundary_edges s));
  checkb "contains" true (Shape.contains_point s (0, 0));
  checkb "outside" false (Shape.contains_point s (10, 0))

let test_shape_l () =
  let s = Shape.l_shape ~w:10 ~h:8 ~notch_w:4 ~notch_h:3 in
  check "area" (80 - 12) (Shape.area s);
  check "edges" 6 (List.length (Shape.boundary_edges s));
  (* Perimeter of an L equals the bounding rectangle's perimeter. *)
  check "perimeter" 36 (Shape.perimeter s)

let test_shape_t_u () =
  let t = Shape.t_shape ~w:12 ~h:10 ~stem_w:4 ~stem_h:6 in
  check "t area" ((12 * 6) + (4 * 4)) (Shape.area t);
  check "t edges" 8 (List.length (Shape.boundary_edges t));
  let u = Shape.u_shape ~w:12 ~h:10 ~notch_w:4 ~notch_h:5 in
  check "u area" (120 - 20) (Shape.area u);
  check "u edges" 8 (List.length (Shape.boundary_edges u))

let test_shape_invalid () =
  Alcotest.check_raises "empty tiles"
    (Invalid_argument "Shape.of_tiles: empty tile list") (fun () ->
      ignore (Shape.of_tiles []));
  Alcotest.check_raises "overlapping tiles"
    (Invalid_argument "Shape.of_tiles: overlapping tiles") (fun () ->
      ignore
        (Shape.of_tiles
           [ r ~x0:0 ~y0:0 ~x1:10 ~y1:10; r ~x0:5 ~y0:5 ~x1:15 ~y1:15 ]))

let test_shape_transform () =
  let s = Shape.l_shape ~w:10 ~h:8 ~notch_w:4 ~notch_h:3 in
  List.iter
    (fun o ->
      let s' = Shape.transform o s in
      check "area" (Shape.area s) (Shape.area s');
      check "perimeter" (Shape.perimeter s) (Shape.perimeter s');
      check "edge count" (List.length (Shape.boundary_edges s))
        (List.length (Shape.boundary_edges s')))
    Orient.all

let test_shape_overlap () =
  let a = Shape.rectangle ~w:10 ~h:10 in
  let b = Shape.translate (Shape.rectangle ~w:10 ~h:10) ~dx:5 ~dy:5 in
  check "overlap" 25 (Shape.overlap_area a b);
  check "symmetric" (Shape.overlap_area a b) (Shape.overlap_area b a);
  check "self" 100 (Shape.overlap_area a a);
  let far = Shape.translate b ~dx:100 ~dy:0 in
  check "disjoint" 0 (Shape.overlap_area a far)

(* Generator for random rectilinear shapes built by stacking disjoint rows. *)
let shape_gen =
  QCheck.Gen.(
    let row y =
      map2
        (fun x0 w -> r ~x0 ~y0:y ~x1:(x0 + w + 1) ~y1:(y + 2))
        (int_range 0 10) (int_range 1 12)
    in
    let* n = int_range 1 5 in
    let rec build i acc =
      if i >= n then return (Shape.of_tiles (List.rev acc))
      else
        let* t = row (i * 2) in
        build (i + 1) (t :: acc)
    in
    build 0 [])

let arb_shape = QCheck.make ~print:(Format.asprintf "%a" Shape.pp) shape_gen

let prop_shape_boundary_balance =
  QCheck.Test.make ~name:"boundary edges balance per direction" ~count:200
    arb_shape (fun s ->
      let edges = Shape.boundary_edges s in
      let len dir side =
        List.fold_left
          (fun acc (e : Edge.t) ->
            if e.Edge.dir = dir && e.Edge.side = side then acc + Edge.length e
            else acc)
          0 edges
      in
      (* Material closed in both axes: left-facing length = right-facing. *)
      len Edge.V Edge.Low = len Edge.V Edge.High
      && len Edge.H Edge.Low = len Edge.H Edge.High)

let prop_shape_transform_area =
  QCheck.Test.make ~name:"transform preserves area/perimeter" ~count:200
    arb_shape (fun s ->
      List.for_all
        (fun o ->
          let s' = Shape.transform o s in
          Shape.area s' = Shape.area s
          && Shape.perimeter s' = Shape.perimeter s)
        Orient.all)

(* ------------------------------------------------------------- Spatial *)

let test_spatial_basics () =
  let world = r ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  let idx = Spatial.create ~world ~cell_size:10 in
  Spatial.insert idx 1 (r ~x0:5 ~y0:5 ~x1:15 ~y1:15);
  Spatial.insert idx 2 (r ~x0:50 ~y0:50 ~x1:60 ~y1:60);
  check "count" 2 (Spatial.length idx);
  Alcotest.(check (list int))
    "query hit" [ 1 ]
    (List.sort compare (Spatial.query idx (r ~x0:0 ~y0:0 ~x1:10 ~y1:10)));
  Alcotest.(check (list int))
    "query both" [ 1; 2 ]
    (List.sort compare (Spatial.query idx (r ~x0:0 ~y0:0 ~x1:100 ~y1:100)));
  Spatial.remove idx 1;
  check "count after remove" 1 (Spatial.length idx);
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Spatial.remove: key not present") (fun () ->
      Spatial.remove idx 1)

let test_spatial_update () =
  let world = r ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  let idx = Spatial.create ~world ~cell_size:10 in
  Spatial.insert idx 0 (r ~x0:5 ~y0:5 ~x1:15 ~y1:15);
  Spatial.insert idx 1 (r ~x0:80 ~y0:80 ~x1:90 ~y1:90);
  (* Same-bin update: rectangle changes, bins do not. *)
  Spatial.update idx 0 (r ~x0:6 ~y0:6 ~x1:14 ~y1:14);
  Alcotest.(check bool)
    "rect_of reflects update" true
    (Rect.equal (Spatial.rect_of idx 0) (r ~x0:6 ~y0:6 ~x1:14 ~y1:14));
  Alcotest.(check (list int))
    "old position still found (same bins)" [ 0 ]
    (List.sort compare (Spatial.query idx (r ~x0:0 ~y0:0 ~x1:20 ~y1:20)));
  (* Cross-bin move: must disappear from the old range and appear in the
     new one. *)
  Spatial.update idx 0 (r ~x0:70 ~y0:70 ~x1:78 ~y1:78);
  Alcotest.(check (list int))
    "gone from old bins" []
    (Spatial.query idx (r ~x0:0 ~y0:0 ~x1:20 ~y1:20));
  Alcotest.(check (list int))
    "found in new bins" [ 0; 1 ]
    (List.sort compare (Spatial.query idx (r ~x0:65 ~y0:65 ~x1:95 ~y1:95)));
  check "count unchanged by updates" 2 (Spatial.length idx);
  Alcotest.check_raises "update absent"
    (Invalid_argument "Spatial.update: key not present") (fun () ->
      Spatial.update idx 7 (r ~x0:0 ~y0:0 ~x1:1 ~y1:1))

(* Random churn: a sequence of inserts/updates/removes must leave queries
   agreeing with a brute-force scan of the live rectangles. *)
let prop_spatial_update_query =
  QCheck.Test.make ~name:"update/query matches brute force" ~count:60
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) (QCheck.pair arb_rect arb_rect))
    (fun ops ->
      let world = r ~x0:(-100) ~y0:(-100) ~x1:100 ~y1:100 in
      let idx = Spatial.create ~world ~cell_size:16 in
      let live = Hashtbl.create 16 in
      List.iteri
        (fun i (r0, r1) ->
          Spatial.insert idx i r0;
          Hashtbl.replace live i r0;
          if i mod 2 = 0 then begin
            Spatial.update idx i r1;
            Hashtbl.replace live i r1
          end;
          if i mod 5 = 4 then begin
            Spatial.remove idx i;
            Hashtbl.remove live i
          end)
        ops;
      let probe = r ~x0:(-40) ~y0:(-40) ~x1:40 ~y1:40 in
      let got = List.sort compare (Spatial.query idx probe) in
      let expected =
        Hashtbl.fold
          (fun k rc acc -> if Rect.touches rc probe then k :: acc else acc)
          live []
        |> List.sort compare
      in
      got = expected && Spatial.length idx = Hashtbl.length live)

let prop_spatial_pairs =
  QCheck.Test.make ~name:"iter_pairs matches brute force" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 0 12) arb_rect)
    (fun rects ->
      let rects = List.filter (fun r -> not (Rect.is_empty r)) rects in
      let world = r ~x0:(-100) ~y0:(-100) ~x1:100 ~y1:100 in
      let idx = Spatial.create ~world ~cell_size:16 in
      List.iteri (fun i rc -> Spatial.insert idx i rc) rects;
      let seen = Hashtbl.create 16 in
      Spatial.iter_pairs idx (fun a _ b _ ->
          let key = (min a b, max a b) in
          if Hashtbl.mem seen key then raise Exit;
          Hashtbl.add seen key ());
      let arr = Array.of_list rects in
      let expected = ref 0 in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b -> if j > i && Rect.touches a b then incr expected)
            arr)
        arr;
      Hashtbl.length seen = !expected)

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "geometry"
    [ ( "interval",
        [ Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "intersection" `Quick test_interval_inter;
          Alcotest.test_case "containment" `Quick test_interval_contains_interval;
          Alcotest.test_case "subtract" `Quick test_interval_subtract ] );
      ("interval-props", qt [ prop_subtract_partition; prop_inter_commutes ]);
      ( "rect",
        [ Alcotest.test_case "basics" `Quick test_rect_basics;
          Alcotest.test_case "intersection" `Quick test_rect_inter;
          Alcotest.test_case "expand" `Quick test_rect_expand;
          Alcotest.test_case "disjoint" `Quick test_rect_disjoint ] );
      ("rect-props", qt [ prop_rect_inter; prop_rect_translate; prop_compare_orders ]);
      ( "orient",
        [ Alcotest.test_case "group laws" `Quick test_orient_group;
          Alcotest.test_case "action" `Quick test_orient_action;
          Alcotest.test_case "axis swap" `Quick test_orient_swaps;
          Alcotest.test_case "aspect inversion table" `Quick
            test_orient_inversion_table;
          Alcotest.test_case "rect action" `Quick test_orient_rect ] );
      ( "edge",
        [ Alcotest.test_case "faces" `Quick test_edge_faces;
          Alcotest.test_case "transform" `Quick test_edge_transform ] );
      ( "shape",
        [ Alcotest.test_case "rectangle" `Quick test_shape_rectangle;
          Alcotest.test_case "l-shape" `Quick test_shape_l;
          Alcotest.test_case "t/u shapes" `Quick test_shape_t_u;
          Alcotest.test_case "invalid" `Quick test_shape_invalid;
          Alcotest.test_case "transform" `Quick test_shape_transform;
          Alcotest.test_case "overlap" `Quick test_shape_overlap ] );
      ( "shape-props",
        qt [ prop_shape_boundary_balance; prop_shape_transform_area ] );
      ( "spatial",
        Alcotest.test_case "basics" `Quick test_spatial_basics
        :: Alcotest.test_case "update" `Quick test_spatial_update
        :: qt [ prop_spatial_pairs; prop_spatial_update_query ] ) ]
