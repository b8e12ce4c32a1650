open Fuzz_case

(* Candidate simplifications, most aggressive first.  Each either shrinks a
   size field or neutralizes a knob; all keep the case well-formed (the
   Synth preconditions n_cells >= 2, n_pins >= 2·n_nets). *)
let candidates c =
  let clamp_pins c = { c with n_pins = max c.n_pins (2 * c.n_nets) } in
  let sized f = clamp_pins (f c) in
  let drop_one =
    List.mapi
      (fun i _ ->
        { c with mutations = List.filteri (fun j _ -> j <> i) c.mutations })
      c.mutations
  in
  [ sized (fun c -> { c with n_cells = max 2 (c.n_cells / 2) });
    sized (fun c -> { c with n_cells = max 2 (c.n_cells - 1) });
    sized (fun c -> { c with n_nets = max 1 (c.n_nets / 2) });
    sized (fun c -> { c with n_nets = max 1 (c.n_nets - 1) });
    { c with n_pins = 2 * c.n_nets };
    { c with mutations = [] } ]
  @ drop_one
  @ [ { c with peko = 0 };
      { c with peko = (if c.peko > 0 then max 4 (c.peko / 2) else 0) };
      { c with replicas = 1 };
      { c with jobs_check = false };
      { c with core_scale = 1.0 };
      { c with time_budget_s = None };
      { c with a_c = max 2 (c.a_c / 2) } ]

(* A well-founded measure: strictly decreases on every accepted step, so
   the loop terminates without relying on [max_steps]. *)
let size c =
  c.n_cells + c.n_nets + c.n_pins + (10 * List.length c.mutations)
  + (10 * c.replicas)
  + (if c.jobs_check then 10 else 0)
  + (if c.core_scale <> 1.0 then 10 else 0)
  + (match c.time_budget_s with Some _ -> 10 | None -> 0)
  + c.a_c
  + (if c.peko > 0 then 10 + c.peko else 0)

let reproduces ~run ~key cand =
  List.mem key (Runner.outcome_keys (run cand))

(* Bounds the work on pathological landscapes. *)
let max_steps = 200

let shrink ~run ~key c0 =
  let steps = ref 0 in
  let rec go c =
    if !steps >= max_steps then c
    else
      let next =
        List.find_opt
          (fun cand -> size cand < size c && reproduces ~run ~key cand)
          (candidates c)
      in
      match next with
      | Some c' ->
          incr steps;
          go c'
      | None -> c
  in
  let c = go c0 in
  (c, !steps)
