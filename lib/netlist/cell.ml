open Twmc_geometry

type kind = Macro | Custom

type variant = {
  shape : Shape.t;
  edges : Edge.t list;
  sites : Pin_site.t array;
  aspect : float;
}

type t = {
  name : string;
  kind : kind;
  variants : variant array;
  pins : Pin.t array;
}

(* Translate a shape so its bounding box is centered on the origin; return
   the shape and the applied offset. *)
let center_shape shape =
  let b = Shape.bbox shape in
  let cx, cy = Rect.center b in
  (Shape.translate shape ~dx:(-cx) ~dy:(-cy), (-cx, -cy))

let variant_of_shape ~sites_per_edge ~track_spacing ~with_sites shape =
  let shape, offset = center_shape shape in
  let edges = Shape.boundary_edges shape in
  let sites =
    if with_sites then Pin_site.sites_of_edges ~sites_per_edge ~track_spacing edges
    else [||]
  in
  let b = Shape.bbox shape in
  let aspect =
    if Rect.height b = 0 then 1.0
    else float_of_int (Rect.width b) /. float_of_int (Rect.height b)
  in
  ({ shape; edges; sites; aspect }, offset)

let macro ~name ~shape ~pins =
  let v, (dx, dy) =
    variant_of_shape ~sites_per_edge:0 ~track_spacing:1 ~with_sites:false shape
  in
  ignore v.sites;
  let b = Shape.bbox v.shape in
  let pins =
    List.map
      (fun (p : Pin.t) ->
        match p.Pin.loc with
        | Pin.Fixed (x, y) ->
            let x = x + dx and y = y + dy in
            (* Closed bounds: pins legitimately sit on the high edges. *)
            if
              not
                (x >= b.Rect.x0 && x <= b.Rect.x1 && y >= b.Rect.y0
               && y <= b.Rect.y1)
            then
              invalid_arg
                (Printf.sprintf "Cell.macro %s: pin %s outside bounding box"
                   name p.Pin.name);
            { p with Pin.loc = Pin.Fixed (x, y) }
        | Pin.Uncommitted _ ->
            invalid_arg
              (Printf.sprintf "Cell.macro %s: pin %s is uncommitted" name
                 p.Pin.name))
      pins
  in
  { name; kind = Macro; variants = [| v |]; pins = Array.of_list pins }

let default_sites_per_edge = 8

let rect_shape_of_area_aspect area aspect =
  let w = max 1 (int_of_float (Float.round (sqrt (float_of_int area *. aspect)))) in
  let h = max 1 (int_of_float (Float.round (float_of_int area /. float_of_int w))) in
  Shape.rectangle ~w ~h

let custom ~name ~area ~aspect_lo ~aspect_hi ?(n_variants = 5)
    ?(sites_per_edge = default_sites_per_edge) ~track_spacing ~pins () =
  if area <= 0 then invalid_arg "Cell.custom: nonpositive area";
  if aspect_lo <= 0. || aspect_hi < aspect_lo then
    invalid_arg "Cell.custom: bad aspect range";
  let n = if aspect_hi = aspect_lo then 1 else max 1 n_variants in
  let aspects =
    List.init n (fun i ->
        if n = 1 then aspect_lo
        else
          (* Geometric spacing keeps the w/h steps perceptually even. *)
          aspect_lo
          *. ((aspect_hi /. aspect_lo) ** (float_of_int i /. float_of_int (n - 1))))
  in
  let variants =
    List.map
      (fun a ->
        let shape = rect_shape_of_area_aspect area a in
        fst (variant_of_shape ~sites_per_edge ~track_spacing ~with_sites:true shape))
      aspects
  in
  { name; kind = Custom; variants = Array.of_list variants; pins = Array.of_list pins }

let custom_instances ~name ~shapes ?(sites_per_edge = default_sites_per_edge)
    ~track_spacing ~pins () =
  if shapes = [] then invalid_arg "Cell.custom_instances: no shapes";
  let variants =
    List.map
      (fun s -> fst (variant_of_shape ~sites_per_edge ~track_spacing ~with_sites:true s))
      shapes
  in
  { name; kind = Custom; variants = Array.of_list variants; pins = Array.of_list pins }

let n_variants c = Array.length c.variants
let variant c i = c.variants.(i)
let n_pins c = Array.length c.pins
let base_area c = Shape.area c.variants.(0).shape

(* Local position of a site after orientation. *)
let site_local_pos c ~variant ~orient site =
  let s = c.variants.(variant).sites.(site) in
  Orient.apply orient (s.Pin_site.x, s.Pin_site.y)

let pin_local_pos c ~variant ~orient ~site_of_pin i =
  match c.pins.(i).Pin.loc with
  | Pin.Fixed (x, y) -> Orient.apply orient (x, y)
  | Pin.Uncommitted _ -> site_local_pos c ~variant ~orient (site_of_pin i)

let allowed_sites c ~variant pin =
  match c.pins.(pin).Pin.loc with
  | Pin.Fixed _ -> []
  | Pin.Uncommitted restriction ->
      let sites = c.variants.(variant).sites in
      let ok (s : Pin_site.t) =
        match restriction with
        | Pin.Any_edge -> true
        | Pin.Sides sides -> List.exists (Side.equal s.Pin_site.side) sides
      in
      List.filter (fun i -> ok sites.(i)) (List.init (Array.length sites) Fun.id)

(* Distance from a point to an edge segment, used to snap committed pins to
   the boundary edge they live on. *)
let edge_distance (e : Edge.t) (x, y) =
  let along, across =
    match e.Edge.dir with Edge.V -> (y, x) | Edge.H -> (x, y)
  in
  let sp = e.Edge.span in
  let d_along =
    if along < sp.Interval.lo then sp.Interval.lo - along
    else if along > sp.Interval.hi then along - sp.Interval.hi
    else 0
  in
  abs (across - e.Edge.pos) + d_along

let static_pins_per_edge c ~variant =
  let v = c.variants.(variant) in
  let edges = Array.of_list v.edges in
  let counts = Array.make (Array.length edges) 0.0 in
  Array.iter
    (fun (p : Pin.t) ->
      match p.Pin.loc with
      | Pin.Fixed (x, y) ->
          let best = ref 0 and bestd = ref max_int in
          Array.iteri
            (fun i e ->
              let d = edge_distance e (x, y) in
              if d < !bestd then (
                bestd := d;
                best := i))
            edges;
          counts.(!best) <- counts.(!best) +. 1.0
      | Pin.Uncommitted restriction ->
          let allowed =
            Array.to_list edges
            |> List.mapi (fun i e -> (i, e))
            |> List.filter (fun (_, e) ->
                   match restriction with
                   | Pin.Any_edge -> true
                   | Pin.Sides sides ->
                       List.exists (Side.equal (Side.of_edge e)) sides)
          in
          let n = List.length allowed in
          if n > 0 then
            List.iter
              (fun (i, _) -> counts.(i) <- counts.(i) +. (1.0 /. float_of_int n))
              allowed)
    c.pins;
  counts

let pp ppf c =
  Format.fprintf ppf "%s (%s, %d variants, %d pins)" c.name
    (match c.kind with Macro -> "macro" | Custom -> "custom")
    (Array.length c.variants) (Array.length c.pins)
