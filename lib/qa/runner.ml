module Clock = Twmc_obs.Clock
module Flow = Twmc.Flow

type failure_kind =
  | Crash of string
  | Oracle_violation of Oracle.failure
  | Nondeterminism of string
  | Budget_blowout of float

type outcome =
  | Passed of Flow.status
  | Rejected of string
  | Failed of failure_kind list

let failure_key = function
  | Crash _ -> "crash"
  | Oracle_violation f -> "oracle:" ^ f.Oracle.oracle
  | Nondeterminism _ -> "nondet"
  | Budget_blowout _ -> "budget"

let outcome_keys = function
  | Failed fs -> List.map failure_key fs
  | Passed _ | Rejected _ -> []

(* A run under a wall-clock budget [b] must come back in roughly [b]; the
   classifier allows a generous 5·b + 10 s before calling it a blowout, so
   only a genuinely ignored budget (a loop missing its should_stop poll)
   trips it, never scheduler jitter.  Pure so the threshold is unit-testable
   without waiting out a real budget. *)
let classify_budget ~budget_s ~elapsed_s =
  match budget_s with
  | Some b when elapsed_s > (5.0 *. b) +. 10.0 -> Some (Budget_blowout elapsed_s)
  | Some _ | None -> None

(* The constructed-optima lower bound: when the case carries a PEKO
   certificate, the flow's final TEIL must not beat the certified optimum —
   provided the final placement is overlap-free, the regime where the
   packing bound applies (annealing under a tight budget can legitimately
   end with residual overlap, and overlapping cells can sit arbitrarily
   close).  The certificate itself is re-verified first. *)
let peko_oracle c (rr : Flow.resilient_result) =
  match Fuzz_case.peko_certificate c with
  | None -> []
  | Some cert -> (
      match rr.Flow.flow with
      | None -> []
      | Some r ->
          let nl = r.Flow.netlist in
          let cert_failures = Oracle.check_certificate nl cert in
          if cert_failures <> [] then cert_failures
          else
            let p = r.Flow.stage2.Twmc.Stage2.placement in
            let overlap_free = Twmc_place.Placement.c2_raw p <= 0.0 in
            let optimal =
              cert.Twmc_workload.Peko.optimal_teil in
            if
              overlap_free
              && r.Flow.teil_final < optimal -. (1e-9 *. (1.0 +. optimal))
            then
              [ { Oracle.oracle = "peko-lower-bound";
                  detail =
                    Printf.sprintf
                      "overlap-free final TEIL %.6g beats the certified \
                       optimum %.6g"
                      r.Flow.teil_final optimal } ]
            else [])

let resilient ~jobs c nl =
  Flow.run_resilient ~params:(Fuzz_case.params c) ~seed:c.Fuzz_case.seed
    ?core:(Fuzz_case.core c nl)
    ?time_budget_s:c.Fuzz_case.time_budget_s ~max_retries:1 ~jobs
    ~replicas:c.Fuzz_case.replicas nl

let digest (rr : Flow.resilient_result) =
  (rr.Flow.status,
   match rr.Flow.flow with Some r -> Fingerprint.flow r | None -> "none")

let run ?(oracles = true) ?extra_oracle c =
  match Fuzz_case.netlist c with
  | Error m -> Rejected m
  | Ok nl -> (
      let t0 = Clock.now_ns () in
      match resilient ~jobs:1 c nl with
      | exception ((Out_of_memory | Stack_overflow | Sys.Break
                   | Twmc_util.Fault.Abort _) as e) ->
          raise e
      | exception e ->
          Failed
            [ Crash
                (Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace ()) ]
      | rr ->
          let elapsed = Clock.s_of_ns (Clock.now_ns () - t0) in
          let failures = ref [] in
          (match
             classify_budget ~budget_s:c.Fuzz_case.time_budget_s
               ~elapsed_s:elapsed
           with
          | Some f -> failures := [ f ]
          | None -> ());
          if oracles then begin
            (match rr.Flow.flow with
            | Some r ->
                failures :=
                  !failures
                  @ List.map (fun f -> Oracle_violation f) (Oracle.check_flow r)
            | None -> ());
            (* The normalization oracle needs only the netlist, so it runs
               even when the flow degraded to nothing. *)
            failures :=
              !failures
              @ List.map
                  (fun f -> Oracle_violation f)
                  (Oracle.eta_monotone ~seed:c.Fuzz_case.seed nl);
            failures :=
              !failures
              @ List.map (fun f -> Oracle_violation f) (peko_oracle c rr)
          end;
          (match extra_oracle with
          | Some f ->
              failures :=
                !failures @ List.map (fun x -> Oracle_violation x) (f rr)
          | None -> ());
          (* Determinism across --jobs: pure mechanism, so the digest must
             be bit-identical.  Skipped under a wall-clock budget, where
             the two runs legitimately cut off at different points. *)
          if
            c.Fuzz_case.jobs_check
            && c.Fuzz_case.time_budget_s = None
            && !failures = []
          then begin
            match resilient ~jobs:2 c nl with
            | exception ((Out_of_memory | Stack_overflow | Sys.Break
                         | Twmc_util.Fault.Abort _) as e) ->
                raise e
            | exception e ->
                failures :=
                  [ Nondeterminism
                      ("jobs=2 raised where jobs=1 did not: "
                      ^ Printexc.to_string e) ]
            | rr2 ->
                let s1, d1 = digest rr and s2, d2 = digest rr2 in
                if s1 <> s2 then
                  failures :=
                    [ Nondeterminism
                        (Printf.sprintf "status %s at jobs=1 but %s at jobs=2"
                           (Flow.status_to_string s1)
                           (Flow.status_to_string s2)) ]
                else if d1 <> d2 then
                  failures :=
                    [ Nondeterminism
                        (Printf.sprintf "result digest %s at jobs=1 but %s \
                                         at jobs=2" d1 d2) ]
          end;
          if !failures <> [] then Failed !failures else Passed rr.Flow.status)

let pp_outcome ppf = function
  | Passed s -> Format.fprintf ppf "passed (%s)" (Flow.status_to_string s)
  | Rejected m -> Format.fprintf ppf "rejected by construction: %s" m
  | Failed fs ->
      Format.fprintf ppf "FAILED:@,";
      List.iter
        (fun f ->
          match f with
          | Crash m -> Format.fprintf ppf "  crash: %s@," m
          | Oracle_violation o -> Format.fprintf ppf "  %a@," Oracle.pp_failure o
          | Nondeterminism m -> Format.fprintf ppf "  nondeterminism: %s@," m
          | Budget_blowout s ->
              Format.fprintf ppf "  budget blowout: ran %.1fs@," s)
        fs
