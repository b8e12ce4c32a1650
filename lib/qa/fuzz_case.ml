open Twmc_geometry
module Mutate = Twmc_workload.Mutate
module Synth = Twmc_workload.Synth
module Params = Twmc_place.Params
module Rng = Twmc_sa.Rng

type t = {
  seed : int;
  n_cells : int;
  n_nets : int;
  n_pins : int;
  frac_custom : float;
  frac_rectilinear : float;
  mutations : Mutate.t list;
  replicas : int;
  jobs_check : bool;
  core_scale : float;
  a_c : int;
  time_budget_s : float option;
  peko : int;
}

let default =
  { seed = 1;
    n_cells = 8;
    n_nets = 16;
    n_pins = 40;
    frac_custom = 0.25;
    frac_rectilinear = 0.25;
    mutations = [];
    replicas = 1;
    jobs_check = false;
    core_scale = 1.0;
    a_c = 4;
    time_budget_s = None;
    peko = 0 }

let generate ~rng =
  let n_cells = Rng.int_incl rng 2 14 in
  let n_nets = Rng.int_incl rng 1 (3 * n_cells) in
  let n_pins = Rng.int_incl rng (2 * n_nets) ((2 * n_nets) + (3 * n_cells)) in
  (* Structural mutators draw at 0.2 each; constraint mutators at 0.06 each,
     which still leaves ~40 % of cases carrying at least one placement
     constraint (the nightly/per-PR campaigns gate on >= 25 %). *)
  let mutations =
    List.filter
      (fun m ->
        Rng.bool_with_prob rng
          (if Mutate.is_constraint_kind m then 0.06 else 0.2))
      Mutate.all_kinds
  in
  let case =
    { seed = Rng.int_incl rng 0 999_983;
      n_cells;
      n_nets;
      n_pins;
      frac_custom = Rng.pick rng [| 0.0; 0.25; 0.5; 1.0 |];
      frac_rectilinear = Rng.pick rng [| 0.0; 0.25; 1.0 |];
      mutations;
      replicas = (if Rng.bool_with_prob rng 0.15 then 2 else 1);
      jobs_check = Rng.bool_with_prob rng 0.25;
      core_scale = Rng.pick rng [| 1.0; 1.0; 1.0; 1.0; 0.5; 0.25; 0.0 |];
      a_c = Rng.pick rng [| 2; 4; 8 |];
      time_budget_s = (if Rng.bool_with_prob rng 0.08 then Some 2.0 else None);
      peko = 0 }
  in
  (* Constructed-optima cases: a slice of the campaign runs on PEKO
     netlists, whose certificate gives the runner an absolute TEIL lower
     bound to check.  Mutations are cleared (a mutated netlist voids the
     certificate) and the core override is dropped (a squeezed core forces
     overlap, under which the bound does not apply). *)
  if Rng.bool_with_prob rng 0.12 then
    { case with
      peko = Rng.pick rng [| 9; 16; 25 |];
      mutations = [];
      core_scale = 1.0 }
  else case

let to_string c =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "twmc-qa-case v1";
  line "seed %d" c.seed;
  line "cells %d" c.n_cells;
  line "nets %d" c.n_nets;
  line "pins %d" c.n_pins;
  line "frac_custom %.17g" c.frac_custom;
  line "frac_rect %.17g" c.frac_rectilinear;
  line "mutations %s"
    (match c.mutations with
    | [] -> "none"
    | ms -> String.concat "," (List.map Mutate.to_string ms));
  line "replicas %d" c.replicas;
  line "jobs_check %b" c.jobs_check;
  line "core_scale %.17g" c.core_scale;
  line "a_c %d" c.a_c;
  line "budget %s"
    (match c.time_budget_s with
    | None -> "none"
    | Some s -> Printf.sprintf "%.17g" s);
  line "peko %d" c.peko;
  Buffer.contents b

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | [] -> err "empty case file"
  | header :: rest when header = "twmc-qa-case v1" -> (
      let tbl = Hashtbl.create 16 in
      let bad = ref None in
      List.iter
        (fun l ->
          match String.index_opt l ' ' with
          | None -> if !bad = None then bad := Some l
          | Some i ->
              Hashtbl.replace tbl (String.sub l 0 i)
                (String.sub l (i + 1) (String.length l - i - 1)))
        rest;
      match !bad with
      | Some l -> err "malformed line: %s" l
      | None -> (
          let get k parse d =
            match Hashtbl.find_opt tbl k with
            | None -> Ok d
            | Some v -> (
                match parse v with
                | Some x -> Ok x
                | None -> Error (Printf.sprintf "bad value for %s: %s" k v))
          in
          let ( let* ) = Result.bind in
          let at_least lo v =
            match int_of_string_opt v with Some n when n >= lo -> Some n | _ -> None
          in
          let fraction v =
            match float_of_string_opt v with
            | Some x when x >= 0.0 && x <= 1.0 -> Some x
            | _ -> None
          in
          let* seed = get "seed" int_of_string_opt default.seed in
          let* n_cells = get "cells" int_of_string_opt default.n_cells in
          let* n_nets = get "nets" int_of_string_opt default.n_nets in
          let* n_pins = get "pins" int_of_string_opt default.n_pins in
          let* frac_custom = get "frac_custom" fraction default.frac_custom in
          let* frac_rectilinear =
            get "frac_rect" fraction default.frac_rectilinear
          in
          let* mutations =
            get "mutations"
              (fun v ->
                if v = "none" then Some []
                else
                  let parts = String.split_on_char ',' v in
                  let ms = List.filter_map Mutate.of_string parts in
                  if List.length ms = List.length parts then Some ms else None)
              []
          in
          let* replicas = get "replicas" (at_least 1) default.replicas in
          let* jobs_check = get "jobs_check" bool_of_string_opt false in
          (* The core may shrink to nothing ([generate] draws 0) but not
             below; a budget is a finite positive number of seconds.  A
             fraction lies in [0, 1] (a NaN fails both comparisons), and a
             run needs at least one replica and one attempt per cell. *)
          let* core_scale =
            get "core_scale"
              (fun v ->
                match float_of_string_opt v with
                | Some s when Float.is_finite s && s >= 0.0 -> Some s
                | _ -> None)
              default.core_scale
          in
          let* a_c = get "a_c" (at_least 1) default.a_c in
          let* time_budget_s =
            get "budget"
              (fun v ->
                if v = "none" then Some None
                else
                  match float_of_string_opt v with
                  | Some s when Float.is_finite s && s > 0.0 -> Some (Some s)
                  | _ -> None)
              None
          in
          let* peko = get "peko" (at_least 0) default.peko in
          Ok
            { seed; n_cells; n_nets; n_pins; frac_custom; frac_rectilinear;
              mutations; replicas; jobs_check; core_scale; a_c; time_budget_s;
              peko }))
  | header :: _ -> err "unrecognized header: %s" header

let constrained c = List.exists Mutate.is_constraint_kind c.mutations

let peko_spec c =
  { (Peko.spec_of_scale c.peko) with
    Twmc_workload.Peko.name = Printf.sprintf "fuzz-peko-%d" c.seed }

let netlist c =
  match
    if c.peko > 0 then
      let nl, _cert = Twmc_workload.Peko.generate ~seed:c.seed (peko_spec c) in
      Mutate.apply_all
        ~rng:(Rng.create ~seed:(c.seed lxor 0x5a5a))
        c.mutations nl
    else
      let spec =
        { Synth.default_spec with
          Synth.name = Printf.sprintf "fuzz-%d" c.seed;
          n_cells = c.n_cells;
          n_nets = c.n_nets;
          n_pins = c.n_pins;
          frac_custom = c.frac_custom;
          frac_rectilinear = c.frac_rectilinear }
      in
      let nl = Synth.generate ~seed:c.seed spec in
      Mutate.apply_all
        ~rng:(Rng.create ~seed:(c.seed lxor 0x5a5a))
        c.mutations nl
  with
  | nl -> Ok nl
  | exception Invalid_argument m -> Error m

let peko_certificate c =
  (* The certificate is only a valid lower bound for the unmutated netlist
     run on its own (unsqueezed) core. *)
  if c.peko > 0 && c.mutations = [] && c.core_scale >= 0.999 then
    let _nl, cert = Twmc_workload.Peko.generate ~seed:c.seed (peko_spec c) in
    Some cert
  else None

let params c =
  { Params.default with Params.a_c = c.a_c; m_routes = 6; seed = c.seed }

let core c nl =
  if c.core_scale >= 0.999 then None
  else
    let r =
      Twmc_estimator.Core_area.determine
        ~beta:Params.default.Params.beta nl
    in
    let w =
      int_of_float (float_of_int r.Twmc_estimator.Core_area.core_w *. c.core_scale)
    in
    let h =
      int_of_float (float_of_int r.Twmc_estimator.Core_area.core_h *. c.core_scale)
    in
    Some (Rect.of_center_dims ~cx:0 ~cy:0 ~w ~h)

let pp ppf c =
  if c.peko > 0 then
    Format.fprintf ppf
      "@[<h>seed %d, peko %d cells, mutations [%s], replicas %d%s, core ×%g, \
       a_c %d%s@]"
      c.seed c.peko
      (String.concat "," (List.map Mutate.to_string c.mutations))
      c.replicas
      (if c.jobs_check then ", jobs-check" else "")
      c.core_scale c.a_c
      (match c.time_budget_s with
      | None -> ""
      | Some s -> Printf.sprintf ", budget %gs" s)
  else
  Format.fprintf ppf
    "@[<h>seed %d, %dc/%dn/%dp, mutations [%s], replicas %d%s, core ×%g, a_c \
     %d%s@]"
    c.seed c.n_cells c.n_nets c.n_pins
    (String.concat "," (List.map Mutate.to_string c.mutations))
    c.replicas
    (if c.jobs_check then ", jobs-check" else "")
    c.core_scale c.a_c
    (match c.time_budget_s with
    | None -> ""
    | Some s -> Printf.sprintf ", budget %gs" s)
