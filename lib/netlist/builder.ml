type pin_spec = {
  pin_name : string;
  net_name : string;
  equiv : int option;
  group : int option;
  seq : int option;
  where : where;
}

and where = At of int * int | On of Pin.edge_restriction

type cell_spec =
  | Macro_spec of { name : string; shape : Twmc_geometry.Shape.t; pins : pin_spec list }
  | Custom_spec of {
      name : string;
      area : int;
      aspect_lo : float;
      aspect_hi : float;
      n_variants : int option;
      sites_per_edge : int option;
      pins : pin_spec list;
    }
  | Instances_spec of {
      name : string;
      shapes : Twmc_geometry.Shape.t list;
      sites_per_edge : int option;
      pins : pin_spec list;
    }

type t = {
  name : string;
  track_spacing : int;
  mutable cells : cell_spec list;  (* reversed *)
  net_ids : (string, int) Hashtbl.t;
  mutable net_names : string list;  (* reversed *)
  weights : (string, float * float) Hashtbl.t;
  mutable constrs : Constr.spec list;  (* reversed *)
}

let at ?equiv ~name ~net (x, y) =
  { pin_name = name; net_name = net; equiv; group = None; seq = None;
    where = At (x, y) }

let on ?equiv ?group ?seq ~name ~net restriction =
  { pin_name = name; net_name = net; equiv; group; seq; where = On restriction }

let create ~name ~track_spacing =
  { name; track_spacing; cells = []; net_ids = Hashtbl.create 64;
    net_names = []; weights = Hashtbl.create 16; constrs = [] }

let net_id t name =
  match Hashtbl.find_opt t.net_ids name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.net_ids in
      Hashtbl.add t.net_ids name i;
      t.net_names <- name :: t.net_names;
      i

let register_pins t pins =
  (* Resolve net ids eagerly so net ordering follows declaration order. *)
  List.iter (fun p -> ignore (net_id t p.net_name)) pins

let add_macro t ~name ~shape ~pins =
  register_pins t pins;
  t.cells <- Macro_spec { name; shape; pins } :: t.cells

let add_custom t ~name ~area ~aspect_lo ~aspect_hi ?n_variants ?sites_per_edge
    ~pins () =
  register_pins t pins;
  t.cells <-
    Custom_spec { name; area; aspect_lo; aspect_hi; n_variants; sites_per_edge; pins }
    :: t.cells

let add_custom_instances t ~name ~shapes ?sites_per_edge ~pins () =
  register_pins t pins;
  t.cells <- Instances_spec { name; shapes; sites_per_edge; pins } :: t.cells

let set_net_weight t ~net ~h ~v = Hashtbl.replace t.weights net (h, v)
let add_constraint t spec = t.constrs <- spec :: t.constrs

let spec_name = function
  | Macro_spec { name; _ } | Custom_spec { name; _ } | Instances_spec { name; _ }
    ->
      name

let spec_pins = function
  | Macro_spec { pins; _ } | Custom_spec { pins; _ } | Instances_spec { pins; _ }
    ->
      pins

(* Declaration-level lint: everything detectable before cell construction,
   so malformed inputs yield diagnostics instead of [Invalid_argument] from
   {!Cell} / {!Netlist.make}.  Codes starting with E are errors, W warnings;
   the robust layer maps them onto its [Diagnostic.t]. *)
let lint_specs t =
  let diags = ref [] in
  let add code entity fmt =
    Format.kasprintf (fun m -> diags := (code, entity, m) :: !diags) fmt
  in
  if t.track_spacing <= 0 then
    add "E100" t.name "track_spacing must be positive (got %d)" t.track_spacing;
  let specs = List.rev t.cells in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n = spec_name s in
      if Hashtbl.mem seen n then add "E101" n "duplicate cell name %s" n
      else Hashtbl.add seen n ())
    specs;
  let degree = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          Hashtbl.replace degree p.net_name
            (1 + Option.value ~default:0 (Hashtbl.find_opt degree p.net_name)))
        (spec_pins s))
    specs;
  Hashtbl.iter
    (fun net d ->
      if d < 2 then
        add "E102" net "net %s has %d pin(s); every net needs at least 2" net d)
    degree;
  List.iter
    (fun s ->
      let name = spec_name s in
      let pins = spec_pins s in
      if pins = [] then add "W201" name "cell %s has no pins" name;
      let pseen = Hashtbl.create 8 in
      List.iter
        (fun p ->
          if Hashtbl.mem pseen p.pin_name then
            add "W202" name "cell %s: duplicate pin name %s" name p.pin_name
          else Hashtbl.add pseen p.pin_name ();
          if p.seq <> None && p.group = None then
            add "E105" name "cell %s: pin %s has seq without group" name
              p.pin_name)
        pins;
      match s with
      | Custom_spec { area; aspect_lo; aspect_hi; _ } ->
          if area <= 0 then
            add "E103" name "cell %s: custom area must be positive (got %d)"
              name area;
          if aspect_lo <= 0.0 || aspect_hi < aspect_lo then
            add "E104" name "cell %s: invalid aspect range [%g, %g]" name
              aspect_lo aspect_hi
      | Macro_spec _ | Instances_spec _ -> ())
    specs;
  Hashtbl.iter
    (fun net _ ->
      if not (Hashtbl.mem t.net_ids net) then
        add "E106" net "weight set for undeclared net %s" net)
    t.weights;
  List.iter
    (fun (c : Constr.spec) ->
      List.iter
        (fun cell ->
          if not (Hashtbl.mem seen cell) then
            add "E107" cell "constraint references unknown cell %s" cell)
        (Constr.spec_cells c);
      let bad_rect x0 y0 x1 y1 =
        if x0 >= x1 || y0 >= y1 then
          add "E108" t.name "constraint rectangle [%d %d %d %d] is empty" x0
            y0 x1 y1
      in
      match c with
      | Constr.Blockage_spec { x0; y0; x1; y1 } -> bad_rect x0 y0 x1 y1
      | Constr.Region_spec { x0; y0; x1; y1; _ } -> bad_rect x0 y0 x1 y1
      | Constr.Density_spec { x0; y0; x1; y1; cap_permille } ->
          bad_rect x0 y0 x1 y1;
          if cap_permille <= 0 || cap_permille > 1000 then
            add "E108" t.name "density cap %d outside (0, 1000]" cap_permille
      | Constr.Keepout_spec { cell; margin } ->
          if margin <= 0 then
            add "E108" cell "keepout margin %d is nonpositive" margin
      | Constr.Align_spec { a; b; _ } | Constr.Abut_spec { a; b } ->
          if a = b then
            add "E108" a "pairwise constraint relates cell %s to itself" a
      | Constr.Fixed_spec _ | Constr.Boundary_spec _ -> ())
    (List.rev t.constrs);
  List.rev !diags

let to_pin t (spec : pin_spec) =
  let net = net_id t spec.net_name in
  match spec.where with
  | At (x, y) -> Pin.fixed ~name:spec.pin_name ~net ?equiv:spec.equiv ~x ~y ()
  | On restriction ->
      Pin.uncommitted ~name:spec.pin_name ~net ?equiv:spec.equiv
        ?group:spec.group ?seq:spec.seq restriction

let build t =
  let cell_specs = List.rev t.cells in
  let cells =
    List.map
      (fun spec ->
        match spec with
        | Macro_spec { name; shape; pins } ->
            Cell.macro ~name ~shape ~pins:(List.map (to_pin t) pins)
        | Custom_spec { name; area; aspect_lo; aspect_hi; n_variants;
                        sites_per_edge; pins } ->
            Cell.custom ~name ~area ~aspect_lo ~aspect_hi ?n_variants
              ?sites_per_edge ~track_spacing:t.track_spacing
              ~pins:(List.map (to_pin t) pins) ()
        | Instances_spec { name; shapes; sites_per_edge; pins } ->
            Cell.custom_instances ~name ~shapes ?sites_per_edge
              ~track_spacing:t.track_spacing ~pins:(List.map (to_pin t) pins) ())
      cell_specs
  in
  Hashtbl.iter
    (fun net _ ->
      if not (Hashtbl.mem t.net_ids net) then
        invalid_arg
          (Printf.sprintf "Builder.build %s: weight for unknown net %s" t.name net))
    t.weights;
  let n_nets = Hashtbl.length t.net_ids in
  let refs = Array.make n_nets [] in
  List.iteri
    (fun ci (c : Cell.t) ->
      Array.iteri
        (fun pi (p : Pin.t) ->
          refs.(p.Pin.net) <- { Net.cell = ci; pin = pi } :: refs.(p.Pin.net))
        c.Cell.pins)
    cells;
  let names = Array.of_list (List.rev t.net_names) in
  let nets =
    List.init n_nets (fun i ->
        let hweight, vweight =
          match Hashtbl.find_opt t.weights names.(i) with
          | Some (h, v) -> (h, v)
          | None -> (1.0, 1.0)
        in
        Net.make ~name:names.(i) ~hweight ~vweight (List.rev refs.(i)))
  in
  let cell_ids = Hashtbl.create 16 in
  List.iteri
    (fun i spec -> Hashtbl.replace cell_ids (spec_name spec) i)
    cell_specs;
  let cell_index name =
    match Hashtbl.find_opt cell_ids name with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Builder.build %s: constraint references unknown cell %s"
             t.name name)
  in
  let constraints =
    List.map (Constr.resolve ~cell_index) (List.rev t.constrs)
  in
  Netlist.make ~name:t.name ~track_spacing:t.track_spacing ~constraints ~cells
    ~nets ()
