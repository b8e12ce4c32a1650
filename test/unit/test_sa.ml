(* Tests for the annealing substrate: RNG, schedules, Metropolis acceptance. *)

open Twmc_sa

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ----------------------------------------------------------------- Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    check "same stream" (Rng.int_incl a 0 1000) (Rng.int_incl b 0 1000)
  done;
  let c = Rng.create ~seed:6 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int_incl a 0 1000 <> Rng.int_incl c 0 1000 then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int_incl rng (-3) 7 in
    checkb "in range" true (v >= -3 && v <= 7)
  done;
  check "degenerate range" 4 (Rng.int_incl rng 4 4);
  Alcotest.check_raises "inverted" (Invalid_argument "Rng.int_incl: k > l")
    (fun () -> ignore (Rng.int_incl rng 5 4));
  for _ = 1 to 100 do
    let f = Rng.unit_float rng in
    checkb "unit float" true (f >= 0.0 && f < 1.0)
  done

let test_rng_pick_shuffle () =
  let rng = Rng.create ~seed:2 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    checkb "pick member" true (Array.exists (( = ) (Rng.pick rng arr)) arr)
  done;
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  Alcotest.(check (list int))
    "permutation" (List.init 20 Fun.id)
    (List.sort compare (Array.to_list a));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_rng_gaussian () =
  let rng = Rng.create ~seed:3 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mean:5.0 ~stddev:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  checkb "mean close" true (Float.abs (mean -. 5.0) < 0.1);
  checkb "variance close" true (Float.abs (var -. 4.0) < 0.3)

let test_rng_bool_prob () =
  let rng = Rng.create ~seed:4 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool_with_prob rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

(* ------------------------------------------------------------ Schedule *)

let test_schedule_stage1 () =
  let s = Schedule.stage1 ~s_t:1.0 in
  checkf "hot region" 0.85 (Schedule.alpha s 50000.0);
  checkf "boundary 7000" 0.85 (Schedule.alpha s 7000.0);
  checkf "mid region" 0.92 (Schedule.alpha s 6999.0);
  checkf "boundary 200" 0.92 (Schedule.alpha s 200.0);
  checkf "low region" 0.85 (Schedule.alpha s 199.0);
  checkf "final region" 0.80 (Schedule.alpha s 9.0);
  (* S_T scales the thresholds (Eqn 19-21). *)
  let s2 = Schedule.stage2 ~s_t:10.0 in
  checkf "scaled stage2 hi" 0.82 (Schedule.alpha s2 100.0);
  checkf "scaled stage2 lo" 0.70 (Schedule.alpha s2 99.0)

let test_schedule_steps () =
  let s = Schedule.stage1 ~s_t:1.0 in
  let temps = Schedule.temperatures s ~t_start:1e5 ~t_final:1.0 in
  let n = List.length temps in
  (* The paper aims for ~120 temperatures over ~6 decades; over the 5
     decades to T=1 we should be in the same regime. *)
  checkb "step count plausible" true (n > 60 && n < 140);
  (* Strictly decreasing. *)
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  checkb "monotone" true (decreasing temps);
  check "n_steps agrees" n (Schedule.n_steps s ~t_start:1e5 ~t_final:1.0)

let test_schedule_custom_errors () =
  Alcotest.check_raises "bad breakpoints"
    (Invalid_argument "Schedule.custom: breakpoints not decreasing") (fun () ->
      ignore (Schedule.custom ~s_t:1.0 ~breakpoints:[ (10., 0.8); (20., 0.9) ] ~final:0.7));
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Schedule.custom: alpha out of (0,1)") (fun () ->
      ignore (Schedule.custom ~s_t:1.0 ~breakpoints:[] ~final:1.0))

let test_schedule_scaling () =
  checkf "s_t reference" 1.0 (Schedule.s_t ~avg_cell_area:1e4);
  checkf "t_inf reference" 1e5 (Schedule.t_infinity ~s_t:1.0);
  checkf "t_inf scales" 2e5 (Schedule.t_infinity ~s_t:2.0)

(* -------------------------------------------------------------- Anneal *)

let test_metropolis () =
  let rng = Rng.create ~seed:7 in
  checkb "improving always" true (Anneal.metropolis rng ~t:0.0 ~delta:(-1.0));
  checkb "zero delta" true (Anneal.metropolis rng ~t:0.0 ~delta:0.0);
  checkb "uphill frozen" false (Anneal.metropolis rng ~t:0.0 ~delta:1.0);
  (* At high T uphill moves are mostly accepted. *)
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Anneal.metropolis rng ~t:1000.0 ~delta:1.0 then incr hits
  done;
  checkb "hot acceptance" true (!hits > 950);
  (* Acceptance rate ~ exp(-1) at t = delta. *)
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Anneal.metropolis rng ~t:1.0 ~delta:1.0 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  checkb "boltzmann rate" true (Float.abs (rate -. exp (-1.0)) < 0.02)

let () =
  Alcotest.run "sa"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "pick/shuffle" `Quick test_rng_pick_shuffle;
          Alcotest.test_case "gaussian" `Quick test_rng_gaussian;
          Alcotest.test_case "bool prob" `Quick test_rng_bool_prob ] );
      ( "schedule",
        [ Alcotest.test_case "stage1 table" `Quick test_schedule_stage1;
          Alcotest.test_case "step count" `Quick test_schedule_steps;
          Alcotest.test_case "custom errors" `Quick test_schedule_custom_errors;
          Alcotest.test_case "scaling" `Quick test_schedule_scaling ] );
      ( "anneal",
        [ Alcotest.test_case "metropolis" `Quick test_metropolis ] ) ]
