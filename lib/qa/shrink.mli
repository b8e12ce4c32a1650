(** Greedy fuzz-case minimization.

    Given a failing case and the failure key to preserve, repeatedly try
    simpler variants — fewer cells, fewer nets, the minimum pin count,
    dropped mutations, neutral execution knobs, less annealing effort —
    and keep any variant that still fails with the same key.  Termination
    is structural: every accepted step strictly decreases a well-founded
    size measure. *)

val shrink :
  run:(Fuzz_case.t -> Runner.outcome) ->
  key:string ->
  Fuzz_case.t ->
  Fuzz_case.t * int
(** [shrink ~run ~key c] returns the minimized case and the number of
    accepted shrink steps, at most 200 (a bound on the work on
    pathological landscapes).  [run] is the full case runner (injectable
    for tests). *)
