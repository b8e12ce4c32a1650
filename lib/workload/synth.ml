open Twmc_geometry
open Twmc_netlist
module Rng = Twmc_sa.Rng

type spec = {
  name : string;
  n_cells : int;
  n_nets : int;
  n_pins : int;
  frac_custom : float;
  frac_rectilinear : float;
  avg_cell_area : float;
  area_sigma : float;
  track_spacing : int;
  frac_grouped_pins : float;
}

let default_spec =
  { name = "synth25";
    n_cells = 25;
    n_nets = 100;
    n_pins = 360;
    frac_custom = 0.2;
    frac_rectilinear = 0.25;
    avg_cell_area = 1.0e4;
    area_sigma = 0.5;
    track_spacing = 2;
    frac_grouped_pins = 0.3 }

type cell_plan =
  | Plan_macro of Shape.t
  | Plan_custom of { area : int; aspect_lo : float; aspect_hi : float }

let random_area rng spec =
  let mu = log spec.avg_cell_area -. (spec.area_sigma ** 2.0 /. 2.0) in
  let a = exp (Rng.gaussian rng ~mean:mu ~stddev:spec.area_sigma) in
  let lo = 64.0 and hi = 64.0 *. spec.avg_cell_area in
  int_of_float (Float.max lo (Float.min hi a))

let dims_of rng spec area =
  let aspect = 0.6 +. Rng.float rng 1.2 in
  let w = int_of_float (sqrt (float_of_int area *. aspect)) in
  let mind = 4 * spec.track_spacing in
  let w = max mind w in
  let h = max mind (area / w) in
  (w, h)

let random_macro_shape rng spec =
  let area = random_area rng spec in
  let w, h = dims_of rng spec area in
  if Rng.unit_float rng >= spec.frac_rectilinear || w < 8 || h < 8 then
    Shape.rectangle ~w ~h
  else
    let nw = max 1 (w / 2 - 1 + Rng.int_incl rng (-(w / 8)) (w / 8))
    and nh = max 1 (h / 2 - 1 + Rng.int_incl rng (-(h / 8)) (h / 8)) in
    let nw = min nw (w - 2) and nh = min nh (h - 2) in
    match Rng.int_incl rng 0 2 with
    | 0 -> Shape.l_shape ~w ~h ~notch_w:nw ~notch_h:nh
    | 1 -> Shape.t_shape ~w ~h ~stem_w:(max 1 (w - nw - 2)) ~stem_h:(h - nh)
    | _ ->
        if nw >= w - 1 then Shape.rectangle ~w ~h
        else Shape.u_shape ~w ~h ~notch_w:nw ~notch_h:nh

let plan_cells rng spec =
  Array.init spec.n_cells (fun _ ->
      if Rng.unit_float rng < spec.frac_custom then begin
        let area = random_area rng spec in
        let a = 0.7 +. Rng.float rng 0.6 in
        Plan_custom
          { area; aspect_lo = a *. 0.55; aspect_hi = Float.min 2.5 (a *. 1.8) }
      end
      else Plan_macro (random_macro_shape rng spec))

(* Perimeter-proportional pin budget with every cell getting at least one
   pin (largest-remainder apportionment). *)
let pin_budget plans n_pins =
  let weight = function
    | Plan_macro s -> float_of_int (Shape.perimeter s)
    | Plan_custom { area; _ } -> 4.0 *. sqrt (float_of_int area)
  in
  let ws = Array.map weight plans in
  let total = Array.fold_left ( +. ) 0.0 ws in
  let n = Array.length plans in
  let fair = Array.map (fun w -> float_of_int n_pins *. w /. total) ws in
  let base = Array.map (fun f -> max 1 (int_of_float f)) fair in
  let used = Array.fold_left ( + ) 0 base in
  let budget = Array.copy base in
  (* Adjust to the exact total, adding to (or removing from) the cells with
     the largest fractional remainder (resp. largest budget). *)
  let order =
    List.sort
      (fun i j ->
        Stdlib.compare
          (fair.(j) -. float_of_int base.(j))
          (fair.(i) -. float_of_int base.(i)))
      (List.init n Fun.id)
  in
  let diff = ref (n_pins - used) in
  let rec distribute order =
    if !diff <> 0 then begin
      (match order with
      | [] -> ()
      | i :: rest ->
          if !diff > 0 then begin
            budget.(i) <- budget.(i) + 1;
            decr diff;
            distribute rest
          end
          else if budget.(i) > 1 then begin
            budget.(i) <- budget.(i) - 1;
            incr diff;
            distribute rest
          end
          else distribute rest);
      if !diff <> 0 then distribute (List.init n Fun.id)
    end
  in
  distribute order;
  budget

let net_degrees rng spec =
  let extra = spec.n_pins - (2 * spec.n_nets) in
  let deg = Array.make spec.n_nets 2 in
  for _ = 1 to extra do
    (* Favor low-degree nets to keep a realistic heavy two/three-pin
       population with a thin high-degree tail. *)
    let n =
      if Rng.unit_float rng < 0.7 then Rng.int_incl rng 0 (spec.n_nets - 1)
      else
        (* Occasionally pile onto a small set of bus-like nets. *)
        Rng.int_incl rng 0 (max 0 ((spec.n_nets / 10) - 1))
    in
    deg.(n) <- deg.(n) + 1
  done;
  deg

(* Assign each net endpoint to a host cell with remaining pin budget,
   preferring distinct cells within a net. *)
let assign_endpoints rng ~budget degrees =
  let n_cells = Array.length budget in
  let remaining = Array.copy budget in
  let total = ref (Array.fold_left ( + ) 0 remaining) in
  let sample_cell () =
    let target = Rng.int_incl rng 1 !total in
    let acc = ref 0 and found = ref (-1) in
    (try
       for i = 0 to n_cells - 1 do
         acc := !acc + remaining.(i);
         if !acc >= target then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  in
  Array.map
    (fun k ->
      let hosts = ref [] in
      for _ = 1 to k do
        let rec pick tries =
          let c = sample_cell () in
          if tries > 0 && List.mem c !hosts then pick (tries - 1) else c
        in
        let c = pick 8 in
        hosts := c :: !hosts;
        remaining.(c) <- remaining.(c) - 1;
        decr total
      done;
      List.rev !hosts)
    degrees

let generate ?(seed = 42) spec =
  let reject fmt = Printf.ksprintf invalid_arg ("Synth.generate: " ^^ fmt) in
  if spec.n_cells < 2 then reject "n_cells = %d, need at least 2" spec.n_cells;
  if spec.n_nets < 1 then reject "n_nets = %d, need at least 1" spec.n_nets;
  if spec.n_pins < 2 * spec.n_nets then
    reject "n_pins = %d, need at least 2 * n_nets = %d" spec.n_pins
      (2 * spec.n_nets);
  if spec.n_pins < spec.n_cells then
    reject "n_pins = %d, need at least n_cells = %d" spec.n_pins spec.n_cells;
  let rng = Rng.create ~seed in
  let plans = plan_cells rng spec in
  let budget = pin_budget plans spec.n_pins in
  let degrees = net_degrees rng spec in
  let hosts = assign_endpoints rng ~budget degrees in
  (* Collect, per cell, its net list; repeated endpoints of one net on one
     cell become electrically equivalent pins sharing the net id as class. *)
  let cell_pins = Array.make spec.n_cells [] in
  Array.iteri
    (fun ni host_list ->
      List.iter (fun c -> cell_pins.(c) <- ni :: cell_pins.(c)) host_list)
    hosts;
  let cell_pins =
    Array.map
      (fun nets ->
        let counts = Hashtbl.create 4 in
        List.iter
          (fun ni ->
            Hashtbl.replace counts ni
              (1 + try Hashtbl.find counts ni with Not_found -> 0))
          nets;
        List.map
          (fun ni ->
            (ni, if Hashtbl.find counts ni > 1 then Some ni else None))
          nets)
      cell_pins
  in
  let b = Builder.create ~name:spec.name ~track_spacing:spec.track_spacing in
  let random_boundary_pos rng shape =
    let edges = Shape.boundary_edges shape in
    let total = List.fold_left (fun a e -> a + Edge.length e) 0 edges in
    let target = Rng.int_incl rng 1 (max 1 total) in
    let rec walk acc = function
      | [] -> List.hd edges
      | e :: rest ->
          let acc = acc + Edge.length e in
          if acc >= target then e else walk acc rest
    in
    let e = walk 0 edges in
    let sp = (e : Edge.t).Edge.span in
    let c = Rng.int_incl rng sp.Interval.lo sp.Interval.hi in
    Edge.point_on e c
  in
  Array.iteri
    (fun ci plan ->
      let pins = List.rev cell_pins.(ci) in
      match plan with
      | Plan_macro shape ->
          let specs =
            List.mapi
              (fun k (ni, equiv) ->
                let x, y = random_boundary_pos rng shape in
                Builder.at ?equiv
                  ~name:(Printf.sprintf "p%d" k)
                  ~net:(Printf.sprintf "n%d" ni)
                  (x, y))
              pins
          in
          Builder.add_macro b ~name:(Printf.sprintf "c%d" ci) ~shape ~pins:specs
      | Plan_custom { area; aspect_lo; aspect_hi } ->
          (* Group a fraction of the pins into groups of 2–4 consecutive
             pins; sequenced groups get seq numbers. *)
          let next_group = ref 0 in
          let rec spec_pins k acc = function
            | [] -> List.rev acc
            | (ni, equiv) :: rest
              when Rng.unit_float rng < spec.frac_grouped_pins
                   && List.length rest >= 1 ->
                let size = min (1 + Rng.int_incl rng 1 3) (1 + List.length rest) in
                let g = !next_group in
                incr next_group;
                let members, rest' =
                  let rec take n acc l =
                    if n = 0 then (List.rev acc, l)
                    else
                      match l with
                      | [] -> (List.rev acc, [])
                      | x :: tl -> take (n - 1) (x :: acc) tl
                  in
                  take (size - 1) [] rest
                in
                let sequenced = Rng.unit_float rng < 0.5 in
                let side =
                  Rng.pick_list rng
                    [ Pin.Any_edge;
                      Pin.Sides [ Side.Left; Side.Right ];
                      Pin.Sides [ Side.Top; Side.Bottom ] ]
                in
                let specs =
                  List.mapi
                    (fun j (nj, eqj) ->
                      Builder.on ?equiv:eqj ~group:g
                        ?seq:(if sequenced then Some j else None)
                        ~name:(Printf.sprintf "p%d" (k + j))
                        ~net:(Printf.sprintf "n%d" nj)
                        side)
                    ((ni, equiv) :: members)
                in
                spec_pins (k + size) (List.rev_append specs acc) rest'
            | (ni, equiv) :: rest ->
                let side =
                  if Rng.unit_float rng < 0.7 then Pin.Any_edge
                  else Pin.Sides [ Rng.pick_list rng Side.all ]
                in
                let s =
                  Builder.on ?equiv
                    ~name:(Printf.sprintf "p%d" k)
                    ~net:(Printf.sprintf "n%d" ni)
                    side
                in
                spec_pins (k + 1) (s :: acc) rest
          in
          let specs = spec_pins 0 [] pins in
          Builder.add_custom b
            ~name:(Printf.sprintf "c%d" ci)
            ~area ~aspect_lo ~aspect_hi ~pins:specs ())
    plans;
  Builder.build b
