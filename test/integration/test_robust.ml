(* Robustness layer: lint diagnostics over a malformed-netlist corpus,
   crash-free resilient flow, and wall-clock budgets. *)

module Check = Twmc.Robust.Check
module Diagnostic = Twmc.Robust.Diagnostic
module Guard = Twmc.Robust.Guard
module Checkpoint = Twmc.Robust.Checkpoint
module Invariant = Twmc.Robust.Invariant
module Graph = Twmc.Channel.Graph

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let codes (r : Check.result) =
  List.map (fun d -> d.Diagnostic.code) r.Check.diagnostics

let has_code c r = List.mem c (codes r)

(* ------------------------------------------------- malformed corpus *)

(* Each fixture is (name, content, expected code).  [Check.string] must
   never raise on any of them. *)
let corpus =
  [ ( "duplicate cell",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell a macro\n tile 0 0 10 10\n pin q net N at 10 5\nend\n",
      "E101" );
    ( "duplicate pin name",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\n\
       pin p net M at 10 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\n\
       pin r net M at 10 5\nend\n",
      "W202" );
    ( "dangling net",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net SOLO at 0 5\nend\n",
      "E102" );
    ( "zero-area tile",
      "circuit c\ntrack_spacing 2\n\
       cell z macro\n tile 0 0 0 0\n pin p net N at 0 0\nend\n",
      "P001" );
    ( "zero-area custom",
      "circuit c\ntrack_spacing 2\n\
       cell z custom area 0 aspect 0.5 2.0\n pin p net N on any\nend\n",
      "E103" );
    ( "inverted aspect range",
      "circuit c\ntrack_spacing 2\n\
       cell z custom area 100 aspect 2.0 0.5\n pin p net N on any\nend\n",
      "E104" );
    ( "weight for undeclared net",
      "circuit c\ntrack_spacing 2\nnet GHOST weight 2.0 1.0\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n",
      "E106" );
    ( "nonpositive track spacing",
      "circuit c\ntrack_spacing 0\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n",
      "E100" );
    ( "pinless cell",
      "circuit c\ntrack_spacing 2\n\
       cell mute macro\n tile 0 0 10 10\nend\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n",
      "W201" );
    ( "interior pin",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 5 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n",
      "W204" );
    ( "truncated cell block",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\n",
      "P001" );
    ( "garbage line",
      "circuit c\ntrack_spacing 2\nwibble wobble\n", "P001" );
    (* Constraint lints.  Each fixture is the same valid two-cell base
       circuit plus a crafted infeasible or overlapping constraint set. *)
    ( "constraint on unknown cell",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n\
       keepout ghost 2\n",
      "E107" );
    ( "empty blockage rectangle",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n\
       blockage 10 10 2 2\n",
      "E108" );
    ( "region smaller than its cell",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n\
       region a 0 0 5 5\n",
      "E111" );
    ( "cell fixed at two targets",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n\
       fix a 0 0\nfix a 5 5\n",
      "E112" );
    ( "overlapping blockages",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n\
       blockage 0 0 10 10\nblockage 5 5 15 15\n",
      "W206" );
    ( "density cap below fixed demand",
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
       cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n\
       fix a 0 0\ndensity -5 -5 5 5 1\n",
      "W207" ) ]

let test_corpus () =
  List.iter
    (fun (name, src, code) ->
      let r = Check.string ~file:name src in
      checkb
        (Printf.sprintf "%s: emits %s (got %s)" name code
           (String.concat "," (codes r)))
        true (has_code code r);
      (* Error-class fixtures fail even lenient checks; warning-class ones
         pass lenient but fail strict. *)
      if code.[0] = 'W' then begin
        checkb (name ^ ": lenient ok") true (Check.ok r);
        checkb (name ^ ": strict rejects") false (Check.ok ~strict:true r)
      end
      else checkb (name ^ ": not ok") false (Check.ok r))
    corpus

let test_clean_netlist_passes () =
  let nl =
    Twmc_workload.Synth.generate ~seed:3
      { Twmc_workload.Synth.default_spec with
        Twmc_workload.Synth.n_cells = 6;
        n_nets = 12;
        n_pins = 40 }
  in
  let r = Check.string (Twmc_netlist.Writer.to_string nl) in
  checkb "ok" true (Check.ok r);
  checkb "ok strict" true (Check.ok ~strict:true r);
  checkb "netlist built" true (Option.is_some r.Check.netlist)

let test_clean_constrained_passes () =
  (* A feasible constraint set must not trip the new lint passes. *)
  let src =
    "circuit c\ntrack_spacing 2\n\
     cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
     cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n\
     blockage 20 20 30 30\n\
     keepout a 2\n\
     fix b -20 -20\n\
     region a -50 -50 50 50\n\
     boundary a left\n\
     align a b v\n\
     abut a b\n\
     density -40 -40 40 40 900\n"
  in
  let r = Check.string src in
  checkb "ok" true (Check.ok r);
  checkb "ok strict" true (Check.ok ~strict:true r);
  match r.Check.netlist with
  | Some nl ->
      check "constraints survive lint" 8
        (Array.length nl.Twmc_netlist.Netlist.constraints)
  | None -> Alcotest.fail "expected a netlist"

let test_crlf_accepted () =
  let src =
    "circuit crlf\r\ntrack_spacing 2\r\ncell a macro\r\n tile 0 0 10 10\r\n \
     pin p net N at 0 5\r\nend\r\ncell b macro\r\n tile 0 0 8 8\r\n pin q \
     net N at 0 4\r\nend\r\n"
  in
  let r = Check.string src in
  checkb "crlf ok" true (Check.ok r)

let test_parse_error_located () =
  match Twmc_netlist.Parser.parse_string ~file:"f.twn" "circuit c\nwibble\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Twmc_netlist.Parser.Parse_error { file; line; _ } ->
      Alcotest.(check string) "file" "f.twn" file;
      check "line" 2 line

let test_strict_vs_lenient () =
  (* Warnings only: lenient passes, strict fails. *)
  let src =
    "circuit c\ntrack_spacing 2\n\
     cell mute macro\n tile 0 0 10 10\nend\n\
     cell a macro\n tile 0 0 10 10\n pin p net N at 0 5\nend\n\
     cell b macro\n tile 0 0 10 10\n pin q net N at 0 5\nend\n"
  in
  let r = Check.string src in
  checkb "lenient ok" true (Check.ok r);
  checkb "strict rejects" false (Check.ok ~strict:true r)

(* ------------------------------------------------------- guard/flow *)

let small_nl () =
  Twmc_workload.Synth.generate ~seed:11
    { Twmc_workload.Synth.default_spec with
      Twmc_workload.Synth.n_cells = 6;
      n_nets = 12;
      n_pins = 40 }

let quick_params =
  { Twmc_place.Params.default with Twmc_place.Params.a_c = 15 }

let test_guard_contains_exceptions () =
  let g = Guard.create () in
  (match Guard.stage g ~name:"boom" (fun () -> failwith "kaput") with
  | Guard.Ok _ -> Alcotest.fail "expected Failed"
  | Guard.Failed d ->
      Alcotest.(check string) "code" "G400" d.Diagnostic.code;
      checkb "message" true
        (Diagnostic.is_error d
        && String.length d.Diagnostic.message > 0));
  match Guard.stage g ~name:"fine" (fun () -> 41 + 1) with
  | Guard.Ok v -> check "value" 42 v
  | Guard.Failed _ -> Alcotest.fail "expected Ok"

let test_guard_deadline () =
  let g = Guard.create ~time_budget_s:0.0 () in
  checkb "expired at once" true (Guard.expired g);
  checkb "should_stop" true (Guard.should_stop g ());
  let g2 = Guard.create ~time_budget_s:3600.0 () in
  checkb "not expired" false (Guard.expired g2)

(* A NaN budget would make a deadline no clock reaches: [create] rejects
   it, naming it.  A negative budget has expired at once, [infinity]
   never expires. *)
let test_guard_budget_domain () =
  Alcotest.check_raises "nan"
    (Invalid_argument
       "Guard.create: time budget is nan, not a number of seconds")
    (fun () -> ignore (Guard.create ~time_budget_s:Float.nan ()));
  checkb "negative expired" true
    (Guard.expired (Guard.create ~time_budget_s:(-1.0) ()));
  let g = Guard.create ~time_budget_s:Float.infinity () in
  checkb "infinity not expired" false (Guard.expired g);
  checkb "infinity remains" true (Guard.remaining_s g = Some Float.infinity)

let test_resilient_flow_clean () =
  let rr = Twmc.Flow.run_resilient ~params:quick_params (small_nl ()) in
  checkb "has result" true (Option.is_some rr.Twmc.Flow.flow);
  checkb "not invalid" true (rr.Twmc.Flow.status <> Twmc.Flow.Invalid_input);
  check "no retries" 0 rr.Twmc.Flow.retries_used

let test_resilient_flow_rejects_invalid () =
  (* A dangling net is an error: the flow refuses to start, rather than
     crashing later inside the annealer. *)
  let r =
    Check.string
      "circuit c\ntrack_spacing 2\n\
       cell a macro\n tile 0 0 10 10\n pin p net SOLO at 0 5\nend\n"
  in
  checkb "corpus entry is invalid" false (Check.ok r);
  match r.Check.netlist with
  | Some nl ->
      let rr = Twmc.Flow.run_resilient ~params:quick_params nl in
      checkb "invalid input" true
        (rr.Twmc.Flow.status = Twmc.Flow.Invalid_input);
      checkb "no flow result" true (rr.Twmc.Flow.flow = None)
  | None -> () (* not even buildable: equally acceptable *)

(* The dangling-net entry above never builds, so [rejects invalid] cannot
   reach the flow; this corpus entry builds and only the lint rejects it.
   [Flow.run] is the guarded driver: with no result it raises [Failure]
   naming the status and the lint finding. *)
let test_run_rejects_invalid () =
  let _, src, _ =
    List.find (fun (name, _, _) -> name = "region smaller than its cell") corpus
  in
  match (Check.string src).Check.netlist with
  | None -> Alcotest.fail "the fixture must build"
  | Some nl -> (
      let rr = Twmc.Flow.run_resilient ~params:quick_params nl in
      checkb "invalid input" true
        (rr.Twmc.Flow.status = Twmc.Flow.Invalid_input);
      match Twmc.Flow.run ~params:quick_params nl with
      | _ -> Alcotest.fail "Flow.run ran a lint-fatal netlist"
      | exception Failure m ->
          let contains sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
            in
            go 0
          in
          checkb ("names the status: " ^ m) true (contains "invalid input");
          checkb ("names the finding: " ^ m) true (contains "E111"))

let test_time_budget_cuts_flow () =
  (* A zero budget must still return a valid best-so-far configuration
     quickly instead of running the full anneal. *)
  let nl =
    Twmc_workload.Synth.generate ~seed:5
      { Twmc_workload.Synth.default_spec with
        Twmc_workload.Synth.n_cells = 30;
        n_nets = 120;
        n_pins = 400 }
  in
  let params =
    { Twmc_place.Params.default with Twmc_place.Params.a_c = 400 }
  in
  (* Deliberately no elapsed-time assertion: wall-clock bounds are flaky
     on loaded CI machines (and the CI lints tests for timing
     primitives).  The Timed_out status plus the cut-short anneal flags
     are the observable contract. *)
  let rr = Twmc.Flow.run_resilient ~params ~time_budget_s:0.2 nl in
  checkb "status timed out" true (rr.Twmc.Flow.status = Twmc.Flow.Timed_out);
  match rr.Twmc.Flow.flow with
  | None -> Alcotest.fail "expected a best-so-far result"
  | Some r ->
      let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
      let c = Twmc_place.Placement.total_cost p in
      checkb "cost finite" true (Float.is_finite c);
      checkb "cost non-negative" true (c >= 0.0)

let test_checkpoint_roundtrip () =
  let nl = small_nl () in
  let rng = Twmc_sa.Rng.create ~seed:9 in
  let s1 = Twmc_place.Stage1.run ~params:quick_params ~rng nl in
  let p = s1.Twmc_place.Stage1.placement in
  let cp = Checkpoint.capture p in
  let x0, y0 = Twmc_place.Placement.cell_pos p 0 in
  let teil0 = Twmc_place.Placement.teil p in
  (* Scramble, then restore. *)
  for ci = 0 to Twmc_netlist.Netlist.n_cells nl - 1 do
    Twmc_place.Placement.set_cell p ci ~x:(1000 + ci) ~y:(-2000) ()
  done;
  checkb "scrambled" true ((x0, y0) <> Twmc_place.Placement.cell_pos p 0);
  Checkpoint.restore p cp;
  Alcotest.(check (pair int int))
    "position restored" (x0, y0)
    (Twmc_place.Placement.cell_pos p 0);
  Alcotest.(check (float 1e-6)) "teil restored" teil0
    (Twmc_place.Placement.teil p)

(* I303 guards the channel graph's neighbour slots: a built graph reports
   nothing, and a copy with one slot pointing at the wrong node is
   reported. *)
let test_channel_graph_invariant () =
  let nl = small_nl () in
  let s1 =
    Twmc_place.Stage1.run ~params:quick_params
      ~rng:(Twmc_sa.Rng.create ~seed:9) nl
  in
  let g =
    Graph.build ~track_spacing:nl.Twmc_netlist.Netlist.track_spacing
      (Twmc.Channel.Extract.of_placement s1.Twmc_place.Stage1.placement)
  in
  checkb "graph has edges" true (Graph.n_edges g > 0);
  Alcotest.(check (list string))
    "built graph is consistent" []
    (List.map Diagnostic.to_string (Invariant.channel_graph g));
  let nbr = Array.copy g.Graph.nbr in
  nbr.(0) <- (nbr.(0) + 1) mod Graph.n_nodes g;
  let broken = Invariant.channel_graph { g with Graph.nbr } in
  Alcotest.(check (list string))
    "wrong neighbour reported" [ "I303" ]
    (List.map (fun d -> d.Diagnostic.code) broken)

let () =
  Alcotest.run "robust"
    [ ( "lint",
        [ Alcotest.test_case "malformed corpus" `Quick test_corpus;
          Alcotest.test_case "clean passes" `Quick test_clean_netlist_passes;
          Alcotest.test_case "clean constrained passes" `Quick
            test_clean_constrained_passes;
          Alcotest.test_case "crlf" `Quick test_crlf_accepted;
          Alcotest.test_case "parse error located" `Quick
            test_parse_error_located;
          Alcotest.test_case "strict vs lenient" `Quick test_strict_vs_lenient
        ] );
      ( "guard",
        [ Alcotest.test_case "contains exceptions" `Quick
            test_guard_contains_exceptions;
          Alcotest.test_case "deadline" `Quick test_guard_deadline;
          Alcotest.test_case "NaN budget rejected" `Quick
            test_guard_budget_domain ] );
      ( "checkpoint",
        [ Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip ] );
      ( "invariant",
        [ Alcotest.test_case "channel graph slots" `Quick
            test_channel_graph_invariant ] );
      ( "flow",
        [ Alcotest.test_case "resilient clean" `Quick test_resilient_flow_clean;
          Alcotest.test_case "rejects invalid" `Quick
            test_resilient_flow_rejects_invalid;
          Alcotest.test_case "Flow.run rejects invalid" `Quick
            test_run_rejects_invalid;
          Alcotest.test_case "time budget" `Quick test_time_budget_cuts_flow
        ] ) ]
