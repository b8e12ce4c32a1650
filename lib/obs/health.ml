(* Anneal-health analytics: derive per-temperature diagnostics from a
   loaded trace and hold them against the schedule dynamics the paper
   prescribes (Sechen & Sangiovanni-Vincentelli, DAC-88).  Everything here
   is a pure fold over [Report.event] lists — the instrumented code never
   depends on this module. *)

type temp_sample = {
  t : float;
  acceptance : float;
  target : float;
  cost : float;
  wx : float;
  wy : float;
  est : float;  (* Average effective cell area (Eqn 19-21 input); nan if
                   the trace predates the attr. *)
}

type class_stat = {
  cls : string;
  attempts : int;
  accepts : int;
  dcost : float;
}

type overflow_sample = Report.route_pass = {
  pass : int;
  before : float;
  after : float;
  length : float;
  nets : float;
}

type t = {
  replica : int option;
  temps : temp_sample list;
  s2_temps : temp_sample list;
  classes : class_stat list;
  s2_classes : class_stat list;
  overflow : overflow_sample list;
  findings : string list;
}

(* The paper's acceptance-rate profile: ~1 at T∞, decaying smoothly to ~0
   at freezing.  A half-cosine over the (log-spaced) temperature index is
   the reference curve the measured acceptances are held against. *)
let target_acceptance ~index ~n =
  if n <= 1 then 1.0
  else
    let frac = float_of_int index /. float_of_int (n - 1) in
    0.5 *. (1.0 +. cos (Float.pi *. frac))

let temp_samples name ~winner events =
  let pts = Report.replica_points name ~winner events in
  let n = List.length pts in
  List.mapi
    (fun i e ->
      let f = Report.attr_f e in
      { t = f "t";
        acceptance = f "acceptance";
        target = target_acceptance ~index:i ~n;
        cost = f "cost";
        wx = f "wx";
        wy = f "wy";
        est = f "est" })
    pts

let class_stats name ~winner events =
  Report.replica_points name ~winner events
  |> List.map (fun e ->
         let f = Report.attr_f e in
         { cls = Report.attr_s e "cls";
           attempts = int_of_float (f "attempts");
           accepts = int_of_float (f "accepts");
           dcost = (let d = f "dcost" in if Float.is_nan d then 0.0 else d) })

(* ------------------------------------------------------------- findings *)

let findings_of ~temps ~classes ~overflow =
  let out = ref [] in
  let finding fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  (match temps with
  | [] -> ()
  | first :: _ ->
      let last = List.nth temps (List.length temps - 1) in
      if first.acceptance < 0.8 then
        finding
          "cold start: initial acceptance %.0f%% (the paper's schedule \
           expects near-total acceptance at T-infinity)"
          (100.0 *. first.acceptance);
      if last.acceptance > 0.15 then
        finding
          "not frozen: final acceptance %.0f%% (expected to approach 0 at \
           the terminal temperature)"
          (100.0 *. last.acceptance);
      let n = List.length temps in
      let deviating =
        List.length
          (List.filter
             (fun s -> Float.abs (s.acceptance -. s.target) > 0.25)
             temps)
      in
      if n >= 5 && float_of_int deviating > 0.4 *. float_of_int n then
        finding
          "acceptance curve off-profile: %d of %d temperatures deviate \
           from the target half-cosine by more than 0.25"
          deviating n;
      (* The range limiter's window must shrink as T drops (Fig 4). *)
      if
        (not (Float.is_nan first.wx))
        && (not (Float.is_nan last.wx))
        && last.wx > first.wx +. 1e-9
      then
        finding "range-limiter window widened: wx %.1f -> %.1f" first.wx
          last.wx;
      (* Estimator convergence: the dynamic interconnect-area estimate
         should settle as the placement does. *)
      let ests =
        List.filter_map
          (fun s -> if Float.is_nan s.est then None else Some s.est)
          temps
      in
      (match List.rev ests with
      | last_e :: prev_e :: _ when prev_e > 0.0 ->
          if Float.abs (last_e -. prev_e) /. prev_e > 0.05 then
            finding
              "estimator not converged: effective cell area still moving \
               %.1f%% over the last temperature"
              (100.0 *. Float.abs (last_e -. prev_e) /. prev_e)
      | _ -> ()));
  List.iter
    (fun c ->
      if c.attempts >= 50 && c.accepts = 0 then
        finding
          "move class %s starved: %d attempts, 0 accepts (wasted \
           generate-function traffic)"
          c.cls c.attempts)
    classes;
  (match (overflow, List.rev overflow) with
  | first :: _ :: _, last :: _ when last.after > first.after ->
      finding
        "router overflow not decaying: pass 1 ended at %.0f, final pass at \
         %.0f"
        first.after last.after
  | _ -> ());
  List.rev !out

let of_events events =
  let winner = Report.winner events in
  let temps = temp_samples "stage1.temp" ~winner events in
  let s2_temps = temp_samples "stage2.temp" ~winner:None events in
  let classes = class_stats "stage1.classes" ~winner events in
  let s2_classes = class_stats "stage2.classes" ~winner:None events in
  let overflow = Report.route_passes events in
  { replica = winner;
    temps;
    s2_temps;
    classes;
    s2_classes;
    overflow;
    findings = findings_of ~temps ~classes ~overflow }

(* ------------------------------------------------------------ rendering *)

let pp_classes ppf title classes =
  if classes <> [] then begin
    Format.fprintf ppf "@,%s:@," title;
    Format.fprintf ppf "  %-22s %9s %9s %7s %12s@," "class" "attempts"
      "accepts" "rate" "sum dcost";
    List.iter
      (fun c ->
        Format.fprintf ppf "  %-22s %9d %9d %6.1f%% %12.1f@," c.cls
          c.attempts c.accepts
          (if c.attempts = 0 then 0.0
           else 100.0 *. float_of_int c.accepts /. float_of_int c.attempts)
          c.dcost)
      classes
  end

let pp ppf h =
  Format.fprintf ppf "@[<v>anneal health: %d stage-1 temperatures%s@,"
    (List.length h.temps)
    (match h.replica with
    | Some r -> Printf.sprintf " (winning replica %d)" r
    | None -> "");
  if h.temps <> [] then begin
    Format.fprintf ppf "@,stage-1 acceptance vs target profile:@,";
    let n = List.length h.temps in
    let step = max 1 (n / 12) in
    List.iteri
      (fun i s ->
        if i mod step = 0 || i = n - 1 then
          Format.fprintf ppf
            "  T=%-12.4g accept=%5.1f%% target=%5.1f%% window=%.0fx%.0f%s@,"
            s.t (100.0 *. s.acceptance) (100.0 *. s.target) s.wx s.wy
            (if Float.is_nan s.est then ""
             else Printf.sprintf "  est=%.0f" s.est))
      h.temps
  end;
  pp_classes ppf "stage-1 move-class efficacy" h.classes;
  pp_classes ppf "stage-2 move-class efficacy" h.s2_classes;
  if h.s2_temps <> [] then
    Format.fprintf ppf "@,stage-2 refinement: %d temperatures@,"
      (List.length h.s2_temps);
  if h.overflow <> [] then begin
    Format.fprintf ppf "@,router overflow decay:@,";
    List.iter
      (fun o ->
        Format.fprintf ppf "  pass %-2d X %.0f -> %.0f@," o.pass o.before
          o.after)
      h.overflow
  end;
  (match h.findings with
  | [] -> Format.fprintf ppf "@,no findings: the run anneals on-profile@,"
  | fs ->
      Format.fprintf ppf "@,findings (%d):@," (List.length fs);
      List.iter (fun f -> Format.fprintf ppf "  - %s@," f) fs);
  Format.fprintf ppf "@]"

let num f : Report.json = if Float.is_nan f then Report.Null else Report.Num f

let to_json h =
  let temp_obj s =
    Report.Obj
      [ ("t", num s.t); ("acceptance", num s.acceptance);
        ("target", num s.target); ("cost", num s.cost); ("wx", num s.wx);
        ("wy", num s.wy); ("est", num s.est) ]
  in
  let class_obj c =
    Report.Obj
      [ ("cls", Report.Str c.cls);
        ("attempts", Report.Int c.attempts);
        ("accepts", Report.Int c.accepts);
        ("dcost", num c.dcost) ]
  in
  Report.Obj
    [ ("replica",
       match h.replica with
       | Some r -> Report.Int r
       | None -> Report.Null);
      ("stage1_temps", Report.List (List.map temp_obj h.temps));
      ("stage2_temps", Report.List (List.map temp_obj h.s2_temps));
      ("stage1_classes", Report.List (List.map class_obj h.classes));
      ("stage2_classes", Report.List (List.map class_obj h.s2_classes));
      ("overflow",
       Report.List
         (List.map
            (fun o ->
              Report.Obj
                [ ("pass", Report.Int o.pass);
                  ("before", num o.before); ("after", num o.after) ])
            h.overflow));
      ("findings", Report.List (List.map (fun f -> Report.Str f) h.findings)) ]
