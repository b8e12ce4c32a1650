open Twmc_geometry

exception Parse_error of { file : string; line : int; msg : string }

let error_to_string = function
  | Parse_error { file; line; msg } ->
      Some (Printf.sprintf "%s:%d: %s" file line msg)
  | _ -> None

(* Internal, file-less error; [with_file] stamps the path on at the
   public entry points so the helpers need not thread it. *)
exception Err of int * string

let fail line fmt = Format.kasprintf (fun m -> raise (Err (line, m))) fmt

let with_file ~file f =
  try f () with Err (line, msg) -> raise (Parse_error { file; line; msg })

let tokenize line =
  (* Strip comments, split on blanks ('\r' handles CRLF input). *)
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun s -> s <> "")

(* Geometry constructors validate eagerly; report their complaints (zero-area
   tiles, inverted rectangles, overlapping tiles) at the offending line. *)
let geom ln f = try f () with Invalid_argument m -> fail ln "%s" m

let int_of ln s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail ln "expected integer, got %S" s

let float_of ln s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail ln "expected number, got %S" s

let restriction_of ln s =
  if s = "any" then Pin.Any_edge
  else
    let sides =
      String.split_on_char ',' s
      |> List.map (fun w ->
             match Side.of_string w with
             | Some side -> side
             | None -> fail ln "unknown side %S" w)
    in
    if sides = [] then fail ln "empty side list" else Pin.Sides sides

(* Parse the optional [key value ...] tail of a pin line. *)
let rec pin_opts ln (equiv, group, seq) = function
  | [] -> (equiv, group, seq)
  | "equiv" :: v :: rest -> pin_opts ln (Some (int_of ln v), group, seq) rest
  | "group" :: v :: rest -> pin_opts ln (equiv, Some (int_of ln v), seq) rest
  | "seq" :: v :: rest -> pin_opts ln (equiv, group, Some (int_of ln v)) rest
  | tok :: _ -> fail ln "unexpected token %S in pin options" tok

let parse_pin ln toks =
  match toks with
  | name :: "net" :: net :: "at" :: x :: y :: rest ->
      let equiv, group, seq = pin_opts ln (None, None, None) rest in
      if group <> None || seq <> None then
        fail ln "fixed pins cannot carry group/seq";
      Builder.at ?equiv ~name ~net (int_of ln x, int_of ln y)
  | name :: "net" :: net :: "on" :: where :: rest ->
      let equiv, group, seq = pin_opts ln (None, None, None) rest in
      Builder.on ?equiv ?group ?seq ~name ~net (restriction_of ln where)
  | _ -> fail ln "malformed pin line"

let parse_shape ln toks =
  geom ln (fun () ->
      match toks with
      | [ "rect"; w; h ] -> Shape.rectangle ~w:(int_of ln w) ~h:(int_of ln h)
      | [ "l"; w; h; nw; nh ] ->
          Shape.l_shape ~w:(int_of ln w) ~h:(int_of ln h)
            ~notch_w:(int_of ln nw) ~notch_h:(int_of ln nh)
      | [ "t"; w; h; sw; sh ] ->
          Shape.t_shape ~w:(int_of ln w) ~h:(int_of ln h)
            ~stem_w:(int_of ln sw) ~stem_h:(int_of ln sh)
      | [ "u"; w; h; nw; nh ] ->
          Shape.u_shape ~w:(int_of ln w) ~h:(int_of ln h)
            ~notch_w:(int_of ln nw) ~notch_h:(int_of ln nh)
      | _ -> fail ln "malformed shape line")

type cell_header =
  | H_macro of string
  | H_custom of {
      name : string;
      area : int;
      aspect_lo : float;
      aspect_hi : float;
      variants : int option;
      sites : int option;
    }
  | H_instances of { name : string; sites : int option }

let parse_cell_header ln toks =
  match toks with
  | [ name; "macro" ] -> H_macro name
  | name :: "custom" :: "area" :: a :: "aspect" :: lo :: hi :: rest ->
      let rec opts (variants, sites) = function
        | [] -> (variants, sites)
        | "variants" :: v :: r -> opts (Some (int_of ln v), sites) r
        | "sites" :: v :: r -> opts (variants, Some (int_of ln v)) r
        | tok :: _ -> fail ln "unexpected token %S in cell header" tok
      in
      let variants, sites = opts (None, None) rest in
      H_custom
        { name; area = int_of ln a; aspect_lo = float_of ln lo;
          aspect_hi = float_of ln hi; variants; sites }
  | name :: "instances" :: rest ->
      let sites =
        match rest with
        | [] -> None
        | [ "sites"; v ] -> Some (int_of ln v)
        | tok :: _ -> fail ln "unexpected token %S in cell header" tok
      in
      H_instances { name; sites }
  | _ -> fail ln "malformed cell header"

(* A constraint line in the top-level scope; all cell references are by
   name and resolve at [Builder.build] time. *)
let parse_constraint ln toks =
  let i = int_of ln in
  match toks with
  | [ "blockage"; x0; y0; x1; y1 ] ->
      Constr.Blockage_spec { x0 = i x0; y0 = i y0; x1 = i x1; y1 = i y1 }
  | [ "keepout"; cell; margin ] ->
      Constr.Keepout_spec { cell; margin = i margin }
  | [ "fix"; cell; x; y ] -> Constr.Fixed_spec { cell; x = i x; y = i y }
  | [ "region"; cell; x0; y0; x1; y1 ] ->
      Constr.Region_spec
        { cell; x0 = i x0; y0 = i y0; x1 = i x1; y1 = i y1 }
  | [ "boundary"; cell; side ] -> (
      match Side.of_string side with
      | Some side -> Constr.Boundary_spec { cell; side }
      | None -> fail ln "unknown side %S" side)
  | [ "align"; a; b; axis ] -> (
      match Constr.axis_of_string axis with
      | Some axis -> Constr.Align_spec { a; b; axis }
      | None -> fail ln "unknown alignment axis %S (want h or v)" axis)
  | [ "abut"; a; b ] -> Constr.Abut_spec { a; b }
  | [ "density"; x0; y0; x1; y1; cap ] ->
      Constr.Density_spec
        { x0 = i x0; y0 = i y0; x1 = i x1; y1 = i y1; cap_permille = i cap }
  | kw :: _ -> fail ln "malformed %s line" kw
  | [] -> fail ln "empty constraint line"

let constraint_keywords =
  [ "blockage"; "keepout"; "fix"; "region"; "boundary"; "align"; "abut";
    "density" ]

let parse_lines lines =
  let builder = ref None in
  let circuit_name = ref None and track_spacing = ref None in
  let pending_weights = ref [] in
  let pending_constrs = ref [] in
  let get_builder ln =
    match !builder with
    | Some b -> b
    | None -> (
        match (!circuit_name, !track_spacing) with
        | Some name, Some ts ->
            let b = Builder.create ~name ~track_spacing:ts in
            List.iter (fun (net, h, v) -> Builder.set_net_weight b ~net ~h ~v)
              (List.rev !pending_weights);
            List.iter (fun c -> Builder.add_constraint b c)
              (List.rev !pending_constrs);
            builder := Some b;
            b
        | None, _ -> fail ln "missing 'circuit NAME' before cells"
        | _, None -> fail ln "missing 'track_spacing N' before cells")
  in
  (* Cell body accumulation; [inst] holds the tiles of an open
     [instance]...[endinstance] block inside an instances cell. *)
  let in_cell = ref None in
  let inst = ref None in
  let finish_cell ln =
    if !inst <> None then fail ln "unterminated instance block";
    match !in_cell with
    | None -> ()
    | Some (header, tiles, shapes, pins) ->
        let b = get_builder ln in
        let pins = List.rev pins in
        (match header with
        | H_macro name ->
            if tiles = [] then fail ln "macro cell %s has no tiles" name;
            Builder.add_macro b ~name
              ~shape:(geom ln (fun () -> Shape.of_tiles (List.rev tiles)))
              ~pins
        | H_custom { name; area; aspect_lo; aspect_hi; variants; sites } ->
            if tiles <> [] || shapes <> [] then
              fail ln "custom cell %s cannot declare tiles/shapes" name;
            Builder.add_custom b ~name ~area ~aspect_lo ~aspect_hi
              ?n_variants:variants ?sites_per_edge:sites ~pins ()
        | H_instances { name; sites } ->
            if shapes = [] then fail ln "instances cell %s has no shapes" name;
            Builder.add_custom_instances b ~name ~shapes:(List.rev shapes)
              ?sites_per_edge:sites ~pins ());
        in_cell := None
  in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      match tokenize line with
      | [] -> ()
      | toks -> (
          match (!in_cell, toks) with
          | Some _, [ "end" ] -> finish_cell ln
          | Some _, [ "instance" ] ->
              if !inst <> None then fail ln "nested instance block";
              inst := Some []
          | Some (h, tiles, shapes, pins), [ "endinstance" ] -> (
              match !inst with
              | None -> fail ln "'endinstance' without 'instance'"
              | Some [] -> fail ln "empty instance block"
              | Some ts ->
                  inst := None;
                  let s = geom ln (fun () -> Shape.of_tiles (List.rev ts)) in
                  in_cell := Some (h, tiles, s :: shapes, pins))
          | Some (h, tiles, shapes, pins), "tile" :: rest ->
              (match rest with
              | [ x0; y0; x1; y1 ] ->
                  let r =
                    geom ln (fun () ->
                        Rect.make ~x0:(int_of ln x0) ~y0:(int_of ln y0)
                          ~x1:(int_of ln x1) ~y1:(int_of ln y1))
                  in
                  (match !inst with
                  | Some ts -> inst := Some (r :: ts)
                  | None -> in_cell := Some (h, r :: tiles, shapes, pins))
              | _ -> fail ln "malformed tile line")
          | Some (h, tiles, shapes, pins), "shape" :: rest ->
              in_cell := Some (h, tiles, parse_shape ln rest :: shapes, pins)
          | Some (h, tiles, shapes, pins), "pin" :: rest ->
              in_cell := Some (h, tiles, shapes, parse_pin ln rest :: pins)
          | Some _, tok :: _ -> fail ln "unexpected token %S inside cell" tok
          | None, [ "circuit"; name ] -> circuit_name := Some name
          | None, [ "track_spacing"; v ] -> track_spacing := Some (int_of ln v)
          | None, [ "net"; net; "weight"; h; v ] -> (
              let h = float_of ln h and v = float_of ln v in
              match !builder with
              | Some b -> Builder.set_net_weight b ~net ~h ~v
              | None -> pending_weights := (net, h, v) :: !pending_weights)
          | None, "cell" :: rest ->
              in_cell := Some (parse_cell_header ln rest, [], [], [])
          | None, (kw :: _ as toks) when List.mem kw constraint_keywords -> (
              let c = parse_constraint ln toks in
              match !builder with
              | Some b -> Builder.add_constraint b c
              | None -> pending_constrs := c :: !pending_constrs)
          | None, [ "end" ] -> fail ln "'end' outside a cell"
          | None, tok :: _ -> fail ln "unexpected token %S" tok
          | _, [] -> ()))
    lines;
  (match !in_cell with
  | Some _ -> fail (List.length lines) "unterminated cell at end of input"
  | None -> ());
  match !builder with
  | Some b -> b
  | None -> fail 0 "no cells in input"

let builder_of_string ?(file = "<string>") s =
  with_file ~file (fun () -> parse_lines (String.split_on_char '\n' s))

let parse_string ?file s = Builder.build (builder_of_string ?file s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let parse_file path = parse_string ~file:path (read_file path)
