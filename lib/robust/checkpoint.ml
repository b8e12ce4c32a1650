module Placement = Twmc_place.Placement
module Params = Twmc_place.Params
module Netlist = Twmc_netlist.Netlist
module Cell = Twmc_netlist.Cell
module Rect = Twmc_geometry.Rect

type cell_state = {
  x : int;
  y : int;
  orient : Twmc_geometry.Orient.t;
  variant : int;
  sites : int array;
}

type t = {
  cells : cell_state array;
  core : Rect.t;
  expander : Placement.expander;
  p2 : float;
  teil : float;
  cost : float;
}

let capture p =
  let nl = Placement.netlist p in
  let cells =
    Array.init (Netlist.n_cells nl) (fun ci ->
        let x, y = Placement.cell_pos p ci in
        let n_pins = Cell.n_pins nl.Netlist.cells.(ci) in
        { x;
          y;
          orient = Placement.cell_orient p ci;
          variant = Placement.cell_variant p ci;
          sites =
            Array.init n_pins (fun pin -> Placement.site_of_pin p ~cell:ci ~pin) })
  in
  let expander =
    match Placement.expander p with
    | Placement.Static exps -> Placement.Static (Array.copy exps)
    | e -> e
  in
  { cells;
    core = Placement.core p;
    expander;
    p2 = Placement.p2 p;
    teil = Placement.teil p;
    cost = Placement.total_cost p }

let restore p t =
  Placement.set_core p t.core;
  Placement.set_expander p t.expander;
  Placement.set_p2 p t.p2;
  Array.iteri
    (fun ci (c : cell_state) ->
      Placement.set_cell p ci ~x:c.x ~y:c.y ~orient:c.orient ~variant:c.variant
        ~sites:(Array.copy c.sites) ())
    t.cells;
  Placement.recompute_all p

let teil t = t.teil
let core_of t = t.core

(* ------------------------------------------------- durable checkpoints *)

type stage = Stage1_done | Stage2_iteration of int

type s1_summary = {
  s1_teil : float;
  s1_c1 : float;
  s1_residual_overlap : float;
  s1_chip : Rect.t;
  s1_core : Rect.t;
  s1_t_inf : float;
  s1_s_t : float;
  s1_temperatures : int;
}

type durable = {
  stage : stage;
  seed_used : int;
  rng_cursor : string;
  snapshot : t;
  dynamic_expander : bool;
  s1 : s1_summary;
}

(* The marshaled payload is pure data: the [Dynamic] expander (which holds
   the estimator's lookup structures) is reduced to a marker and
   reconstructed deterministically at resume from (params, netlist, stage-1
   core) — see [Flow.resume]. *)
type expander_repr =
  | R_none
  | R_static of (int * int * int * int) array
  | R_dynamic

type payload = {
  p_stage : stage;
  p_seed_used : int;
  p_rng : string;
  p_cells : cell_state array;
  p_core : Rect.t;
  p_expander : expander_repr;
  p_p2 : float;
  p_teil : float;
  p_cost : float;
  p_s1 : s1_summary;
  p_params_md5 : string;
}

let magic = "twmc-checkpoint v1"

let stage_to_string = function
  | Stage1_done -> "stage1"
  | Stage2_iteration k -> Printf.sprintf "stage2:%d" k

let stage_of_string s =
  if s = "stage1" then Some Stage1_done
  else
    match String.index_opt s ':' with
    | Some 6 when String.sub s 0 6 = "stage2" -> (
        match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
        | Some k when k >= 1 -> Some (Stage2_iteration k)
        | _ -> None)
    | _ -> None

let netlist_md5 nl = Digest.to_hex (Digest.string (Twmc_netlist.Writer.to_string nl))
let params_md5 (prm : Params.t) = Digest.to_hex (Digest.string (Marshal.to_string prm []))

let durable ~stage ~seed_used ~rng_cursor ~s1 p =
  let snapshot = capture p in
  let dynamic_expander =
    match snapshot.expander with Placement.Dynamic _ -> true | _ -> false
  in
  let snapshot =
    if dynamic_expander then { snapshot with expander = Placement.No_expansion }
    else snapshot
  in
  { stage; seed_used; rng_cursor; snapshot; dynamic_expander; s1 }

let with_expander d expander =
  { d with snapshot = { d.snapshot with expander } }

let save ~path ~netlist ~params d =
  let p_expander =
    if d.dynamic_expander then R_dynamic
    else
      match d.snapshot.expander with
      | Placement.No_expansion -> R_none
      | Placement.Static a -> R_static a
      | Placement.Dynamic _ -> R_dynamic
  in
  let payload =
    Marshal.to_string
      ({ p_stage = d.stage;
         p_seed_used = d.seed_used;
         p_rng = d.rng_cursor;
         p_cells = d.snapshot.cells;
         p_core = d.snapshot.core;
         p_expander;
         p_p2 = d.snapshot.p2;
         p_teil = d.snapshot.teil;
         p_cost = d.snapshot.cost;
         p_s1 = d.s1;
         p_params_md5 = params_md5 params }
        : payload)
      []
  in
  let header =
    Printf.sprintf "%s\nnetlist %s\nstage %s\npayload %d %s\n" magic
      (netlist_md5 netlist) (stage_to_string d.stage) (String.length payload)
      (Digest.to_hex (Digest.string payload))
  in
  Twmc_util.Atomic_io.write_string path (header ^ payload)

(* Split [content] into its four header lines and the payload offset.  Kept
   byte-oriented: the payload is binary and must not be line-split. *)
let split_header content =
  let rec nth_newline i remaining =
    if remaining = 0 then Some i
    else
      match String.index_from_opt content i '\n' with
      | None -> None
      | Some j -> nth_newline (j + 1) (remaining - 1)
  in
  match nth_newline 0 4 with
  | None -> Error "truncated header"
  | Some off ->
      let header = String.sub content 0 off in
      Ok (String.split_on_char '\n' (String.trim header), off)

let load ~path ~netlist ~params =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* content =
    match Twmc_util.Atomic_io.read_string path with
    | s -> Ok s
    | exception Sys_error m -> err "unreadable checkpoint: %s" m
  in
  let* lines, off = split_header content in
  let* l_magic, l_netlist, l_stage, l_payload =
    match lines with
    | [ a; b; c; d ] -> Ok (a, b, c, d)
    | _ -> err "malformed checkpoint header"
  in
  let* () =
    if l_magic = magic then Ok ()
    else err "unrecognized checkpoint format/version: %S" l_magic
  in
  let field name line =
    let prefix = name ^ " " in
    if String.length line > String.length prefix
       && String.sub line 0 (String.length prefix) = prefix
    then Ok (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
    else err "malformed %s line: %S" name line
  in
  let* nl_md5 = field "netlist" l_netlist in
  let* () =
    let actual = netlist_md5 netlist in
    if nl_md5 = actual then Ok ()
    else
      err "checkpoint is for a different netlist (fingerprint %s, input %s)"
        nl_md5 actual
  in
  let* stage_s = field "stage" l_stage in
  let* header_stage =
    match stage_of_string stage_s with
    | Some st -> Ok st
    | None -> err "malformed stage tag: %S" stage_s
  in
  let* len_md5 = field "payload" l_payload in
  let* len, pmd5 =
    match String.split_on_char ' ' len_md5 with
    | [ len; md5 ] -> (
        match int_of_string_opt len with
        | Some n when n >= 0 -> Ok (n, md5)
        | _ -> err "malformed payload length: %S" len)
    | _ -> err "malformed payload line: %S" l_payload
  in
  let* () =
    if String.length content - off = len then Ok ()
    else
      err "payload truncated or padded: %d bytes on disk, %d declared"
        (String.length content - off) len
  in
  let payload_bytes = String.sub content off len in
  let* () =
    let actual = Digest.to_hex (Digest.string payload_bytes) in
    if actual = pmd5 then Ok ()
    else err "payload fingerprint mismatch (%s on disk, %s declared)" actual pmd5
  in
  let* p =
    match (Marshal.from_string payload_bytes 0 : payload) with
    | p -> Ok p
    | exception _ -> err "payload does not deserialize"
  in
  let* () =
    if p.p_stage = header_stage then Ok ()
    else err "stage tag disagrees with payload"
  in
  let* () =
    let actual = params_md5 params in
    if p.p_params_md5 = actual then Ok ()
    else
      err
        "checkpoint was taken under different parameters (fingerprint %s, \
         current %s); resume with the original settings"
        p.p_params_md5 actual
  in
  let expander =
    match p.p_expander with
    | R_none | R_dynamic -> Placement.No_expansion
    | R_static a -> Placement.Static a
  in
  Ok
    { stage = p.p_stage;
      seed_used = p.p_seed_used;
      rng_cursor = p.p_rng;
      snapshot =
        { cells = p.p_cells;
          core = p.p_core;
          expander;
          p2 = p.p_p2;
          teil = p.p_teil;
          cost = p.p_cost };
      dynamic_expander = (p.p_expander = R_dynamic);
      s1 = p.p_s1 }
