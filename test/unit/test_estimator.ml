(* Tests for the interconnect-area estimator (Sec 2.2 of the paper). *)

open Twmc_estimator
open Twmc_netlist
module Shape = Twmc_geometry.Shape
module Rect = Twmc_geometry.Rect

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

(* ---------------------------------------------------------- Modulation *)

let test_modulation_shape () =
  let m = Modulation.default in
  checkf 1e-9 "center max" 2.0 (Modulation.fx m ~core_w:100.0 0.0);
  checkf 1e-9 "edge min" 1.0 (Modulation.fx m ~core_w:100.0 50.0);
  checkf 1e-9 "symmetric"
    (Modulation.fx m ~core_w:100.0 20.0)
    (Modulation.fx m ~core_w:100.0 (-20.0));
  checkf 1e-9 "clamped outside" 1.0 (Modulation.fx m ~core_w:100.0 500.0);
  checkf 1e-9 "midway" 1.5 (Modulation.fx m ~core_w:100.0 25.0);
  (* Eqn 4: alpha = ((M+B)/2)^2 for symmetric parameters. *)
  checkf 1e-9 "alpha" 2.25 (Modulation.alpha m);
  (* The weight ratios the paper observed: center ~2x mid-side ~4x corner. *)
  let w x y = Modulation.weight m ~core_w:100.0 ~core_h:100.0 ~x ~y in
  checkf 1e-9 "center/corner 4x" 4.0 (w 0.0 0.0 /. w 50.0 50.0);
  checkf 1e-9 "center/side 2x" 2.0 (w 0.0 0.0 /. w 50.0 0.0)

let test_modulation_alpha_is_mean () =
  (* Eqn 3: alpha equals the core-mean of fx*fy (checked numerically). *)
  let m = Modulation.make ~mx:2.5 ~bx:0.8 ~my:1.9 ~by:1.1 in
  let n = 400 in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let x = ((float_of_int i +. 0.5) /. float_of_int n -. 0.5) *. 100.0 in
      let y = ((float_of_int j +. 0.5) /. float_of_int n -. 0.5) *. 80.0 in
      sum := !sum +. Modulation.weight m ~core_w:100.0 ~core_h:80.0 ~x ~y
    done
  done;
  let mean = !sum /. float_of_int (n * n) in
  checkf 1e-3 "alpha = mean(fx*fy)" (Modulation.alpha m) mean

let test_modulation_errors () =
  Alcotest.check_raises "B > M" (Invalid_argument "Modulation.make: need 0 < B <= M")
    (fun () -> ignore (Modulation.make ~mx:1.0 ~bx:2.0 ~my:1.0 ~by:1.0))

(* ------------------------------------------------------- Wire estimate *)

let simple_netlist ?(pins_per_net = 2) () =
  let b = Builder.create ~name:"we" ~track_spacing:2 in
  let n_cells = 4 in
  for c = 0 to n_cells - 1 do
    let pins =
      List.init pins_per_net (fun k ->
          Builder.at
            ~name:(Printf.sprintf "p%d" k)
            ~net:(Printf.sprintf "n%d" k)
            (0, 10 + (k * 5)))
    in
    Builder.add_macro b ~name:(Printf.sprintf "c%d" c)
      ~shape:(Shape.rectangle ~w:40 ~h:40)
      ~pins
  done;
  Builder.build b

let test_span_fraction () =
  checkf 1e-9 "k=2" (1.0 /. 3.0) (Wire_estimate.expected_span_fraction 2);
  checkf 1e-9 "k=3" 0.5 (Wire_estimate.expected_span_fraction 3);
  checkf 1e-9 "k=9" 0.8 (Wire_estimate.expected_span_fraction 9);
  Alcotest.check_raises "k=1"
    (Invalid_argument "Wire_estimate.expected_span_fraction: k < 2") (fun () ->
      ignore (Wire_estimate.expected_span_fraction 1))

let test_total_length () =
  let nl = simple_netlist () in
  (* 2 nets of 4 pins each (one per cell): fraction (4-1)/(4+1) = 0.6. *)
  let l = Wire_estimate.total_length ~beta:1.0 ~core_w:100.0 ~core_h:100.0 nl in
  checkf 1e-6 "closed form" (2.0 *. 0.6 *. 200.0) l;
  let l2 = Wire_estimate.total_length ~beta:0.5 ~core_w:100.0 ~core_h:100.0 nl in
  checkf 1e-6 "beta scales" (l /. 2.0) l2;
  (* C_L = half total perimeter: 4 cells of 160 each. *)
  checkf 1e-6 "channel length" 320.0 (Wire_estimate.total_channel_length nl);
  checkf 1e-6 "C_w = N_L/C_L * ts"
    (l /. 320.0 *. 2.0)
    (Wire_estimate.channel_width ~beta:1.0 ~core_w:100.0 ~core_h:100.0 nl)

(* ----------------------------------------------------------- Densities *)

let test_pin_density () =
  (* All pins on the left edge: that side's f_rp > 1, others = 1. *)
  let b = Builder.create ~name:"pd" ~track_spacing:2 in
  Builder.add_macro b ~name:"left-heavy"
    ~shape:(Shape.rectangle ~w:40 ~h:40)
    ~pins:
      (List.init 6 (fun k ->
           Builder.at
             ~name:(Printf.sprintf "p%d" k)
             ~net:(Printf.sprintf "n%d" (k mod 3))
             (0, 4 + (k * 6))));
  Builder.add_macro b ~name:"sparse"
    ~shape:(Shape.rectangle ~w:40 ~h:40)
    ~pins:
      (List.init 3 (fun k ->
           Builder.at
             ~name:(Printf.sprintf "q%d" k)
             ~net:(Printf.sprintf "n%d" k)
             (10 + (k * 8), 0)));
  let nl = Builder.build b in
  let pd = Pin_density.compute nl in
  checkb "d_p positive" true (Pin_density.d_p pd > 0.0);
  let f side = Pin_density.f_rp pd ~cell:0 ~variant:0 side in
  checkb "left heavy" true (f Side.Left > 1.5);
  checkf 1e-9 "right floor" 1.0 (f Side.Right);
  checkf 1e-9 "top floor" 1.0 (f Side.Top);
  checkb "density raw" true
    (Pin_density.side_density pd ~cell:0 ~variant:0 Side.Left
    > Pin_density.side_density pd ~cell:0 ~variant:0 Side.Right)

(* -------------------------------------------------------- Dynamic area *)

let test_dynamic_area_position () =
  let nl = simple_netlist () in
  let est = Dynamic_area.create ~core_w:400 ~core_h:400 nl in
  checkb "C_w positive" true (Dynamic_area.c_w est > 0.0);
  let center_tile = Rect.make ~x0:(-20) ~y0:(-20) ~x1:20 ~y1:20 in
  let corner_tile = Rect.make ~x0:(-200) ~y0:(-200) ~x1:(-160) ~y1:(-160) in
  let area r = Rect.area r in
  let grown_center = Dynamic_area.expand_tile est ~cell:0 ~variant:0 center_tile in
  let grown_corner = Dynamic_area.expand_tile est ~cell:0 ~variant:0 corner_tile in
  (* Moving toward the center swells the effective area (Sec 2.2). *)
  checkb "center grows more" true (area grown_center > area grown_corner);
  checkb "both grow" true (area grown_corner >= area corner_tile);
  (* Eqn 5: at the exact core center with unit pin density the per-edge
     expansion equals the center expansion (the Right side has f_rp = 1
     because this circuit's pins all sit on cell left edges). *)
  let ce = Dynamic_area.center_expansion est in
  let e0 =
    Dynamic_area.edge_expansion est ~cell:0 ~variant:0 ~side:Side.Right ~x:0.0
      ~y:0.0
  in
  Alcotest.(check int) "Eqn 5 at center" ce e0;
  (* And any off-center unit-density edge expands by no more than that. *)
  let e_corner =
    Dynamic_area.edge_expansion est ~cell:0 ~variant:0 ~side:Side.Right
      ~x:180.0 ~y:150.0
  in
  checkb "center exp max" true (e_corner <= ce)

let test_dynamic_area_expectation () =
  (* The normalization guarantees E[e_w] ~ 0.5 C_w for unit pin density;
     Monte-Carlo over uniformly placed edges. *)
  let nl = simple_netlist () in
  (* A large beta keeps C_w well above the integer-rounding noise floor. *)
  let est = Dynamic_area.create ~beta:8.0 ~core_w:1000 ~core_h:1000 nl in
  let rng = Twmc_sa.Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = float_of_int (Twmc_sa.Rng.int_incl rng (-500) 500) in
    let y = float_of_int (Twmc_sa.Rng.int_incl rng (-500) 500) in
    (* f_rp = 1 for this circuit's sides with pins evenly spread? Use a side
       whose factor is exactly 1 (Right: pins are on Left). *)
    sum :=
      !sum
      +. float_of_int
           (Dynamic_area.edge_expansion est ~cell:0 ~variant:0 ~side:Side.Right
              ~x ~y)
  done;
  let mean = !sum /. float_of_int n in
  let expected = 0.5 *. Dynamic_area.c_w est in
  checkb "expectation within 10%" true
    (Float.abs (mean -. expected) /. Float.max 1.0 expected < 0.1)

(* Every expansion is rounded by [Dynamic_area.round_nearest], which
   computes [int_of_float (Float.round x)] without libm.  Inputs: finite x
   of every magnitude up to 2^53, half-way points k ± 0.5 with their
   neighbours [Float.pred] and [Float.succ], and the edges of the
   exactness argument. *)
let rounding_input =
  let edges =
    let p52 = ldexp 1.0 52 in
    List.concat_map
      (fun x -> [ x; -.x ])
      [ 0.0; 0.49999999999999994; 0.5; p52 -. 0.5; p52 +. 0.5; p52;
        ldexp 1.0 53 ]
  in
  QCheck.Gen.(
    let magnitude =
      map2 (fun m e -> ldexp m e) (float_range (-1.0) 1.0) (int_range (-8) 53)
    in
    let half_way =
      let* k =
        map2
          (fun m e -> Float.round (ldexp m e))
          (float_range (-1.0) 1.0) (int_range 0 51)
      in
      let* h = oneofl [ k -. 0.5; k +. 0.5 ] in
      oneofl [ Float.pred h; h; Float.succ h ]
    in
    frequency [ (1, oneofl edges); (3, magnitude); (3, half_way) ])

let prop_round_nearest =
  QCheck.Test.make ~name:"round_nearest equals int_of_float (Float.round x)"
    ~count:20000
    (QCheck.make ~print:(Printf.sprintf "%h") rounding_input)
    (fun x -> Dynamic_area.round_nearest x = int_of_float (Float.round x))

(* ----------------------------------------------------------- Core area *)

let test_core_area () =
  let nl =
    Twmc_workload.Synth.generate ~seed:5
      { Twmc_workload.Synth.default_spec with
        Twmc_workload.Synth.n_cells = 10;
        n_nets = 30;
        n_pins = 100 }
  in
  let r = Core_area.determine ~aspect:1.0 ~fill_target:0.85 nl in
  checkb "converged" true (r.Core_area.iterations < 40);
  checkb "positive dims" true (r.Core_area.core_w > 0 && r.Core_area.core_h > 0);
  (* Near-square when aspect 1. *)
  checkb "aspect respected" true
    (Float.abs
       (float_of_int r.Core_area.core_w /. float_of_int r.Core_area.core_h
      -. 1.0)
    < 0.05);
  (* The expanded cells should fill ~fill_target of the returned core. *)
  let e = r.Core_area.expansion in
  let eff =
    Array.fold_left
      (fun acc (c : Cell.t) ->
        let b = Shape.bbox (Cell.variant c 0).Cell.shape in
        acc + ((Rect.width b + (2 * e)) * (Rect.height b + (2 * e))))
      0 nl.Netlist.cells
  in
  let fill =
    float_of_int eff /. float_of_int (r.Core_area.core_w * r.Core_area.core_h)
  in
  checkb "fill near target" true (Float.abs (fill -. 0.85) < 0.08);
  (* A wide aspect request produces a wide core. *)
  let r2 = Core_area.determine ~aspect:2.0 nl in
  checkb "wide core" true (r2.Core_area.core_w > r2.Core_area.core_h);
  Alcotest.check_raises "bad aspect"
    (Invalid_argument "Core_area.determine: aspect <= 0") (fun () ->
      ignore (Core_area.determine ~aspect:0.0 nl))

let () =
  Alcotest.run "estimator"
    [ ( "modulation",
        [ Alcotest.test_case "tent shape" `Quick test_modulation_shape;
          Alcotest.test_case "alpha = mean" `Quick test_modulation_alpha_is_mean;
          Alcotest.test_case "errors" `Quick test_modulation_errors ] );
      ( "wire estimate",
        [ Alcotest.test_case "span fraction" `Quick test_span_fraction;
          Alcotest.test_case "total length" `Quick test_total_length ] );
      ("pin density", [ Alcotest.test_case "sides" `Quick test_pin_density ]);
      ( "dynamic area",
        [ Alcotest.test_case "position dependence" `Quick test_dynamic_area_position;
          Alcotest.test_case "expectation" `Quick test_dynamic_area_expectation;
          QCheck_alcotest.to_alcotest ~long:false
            ~rand:(Random.State.make [| 26 |])
            prop_round_nearest ] );
      ("core area", [ Alcotest.test_case "fixed point" `Quick test_core_area ]) ]
