module Clock = Twmc_obs.Clock
module Flow = Twmc.Flow
module Rng = Twmc_sa.Rng

type failure_record = {
  case : Fuzz_case.t;
  shrunk : Fuzz_case.t;
  key : string;
  kinds : Runner.failure_kind list;
  path : string option;
}

type report = {
  iters_run : int;
  clean : int;
  degraded : int;
  invalid : int;
  timed_out : int;
  rejected : int;
  constrained : int;
  failures : failure_record list;
  elapsed_s : float;
}

let campaign ?corpus_dir ?time_limit_s ?(run = Runner.run ?oracles:None ?extra_oracle:None)
    ?(progress = fun _ _ _ -> ()) ~seed ~iters () =
  (match time_limit_s with
  | Some lim when Float.is_nan lim ->
      invalid_arg "Fuzz.campaign: time limit is nan, not a number of seconds"
  | _ -> ());
  let rng = Rng.create ~seed in
  let t0 = Clock.now_ns () in
  let clean = ref 0 and degraded = ref 0 and invalid = ref 0 in
  let timed_out = ref 0 and rejected = ref 0 and iters_run = ref 0 in
  let constrained = ref 0 in
  let failures = ref [] in
  (try
     for i = 1 to iters do
       (match time_limit_s with
       | Some lim when Clock.s_of_ns (Clock.now_ns () - t0) > lim -> raise Exit
       | _ -> ());
       let case = Fuzz_case.generate ~rng in
       let outcome = run case in
       incr iters_run;
       if Fuzz_case.constrained case then incr constrained;
       progress i case outcome;
       match outcome with
       | Runner.Passed Flow.Clean -> incr clean
       | Runner.Passed Flow.Degraded -> incr degraded
       | Runner.Passed Flow.Invalid_input -> incr invalid
       | Runner.Passed Flow.Timed_out -> incr timed_out
       | Runner.Rejected _ -> incr rejected
       | Runner.Failed kinds ->
           let key = Runner.failure_key (List.hd kinds) in
           let shrunk, _steps = Shrink.shrink ~run ~key case in
           let path =
             Option.map (fun dir -> Corpus.save ~dir ~key shrunk) corpus_dir
           in
           failures := { case; shrunk; key; kinds; path } :: !failures
     done
   with Exit -> ());
  { iters_run = !iters_run;
    clean = !clean;
    degraded = !degraded;
    invalid = !invalid;
    timed_out = !timed_out;
    rejected = !rejected;
    constrained = !constrained;
    failures = List.rev !failures;
    elapsed_s = Clock.s_of_ns (Clock.now_ns () - t0) }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d case(s) in %.1fs: %d clean, %d degraded, %d invalid input, %d \
     timed out, %d rejected by construction, %d constrained, %d FAILURE(S)@,"
    r.iters_run r.elapsed_s r.clean r.degraded r.invalid r.timed_out
    r.rejected r.constrained
    (List.length r.failures);
  List.iter
    (fun f ->
      Format.fprintf ppf "failure [%s]: %a@,  shrunk to: %a@," f.key
        Fuzz_case.pp f.case Fuzz_case.pp f.shrunk;
      (match f.path with
      | Some p -> Format.fprintf ppf "  saved: %s@," p
      | None -> ()))
    r.failures;
  Format.fprintf ppf "@]"
