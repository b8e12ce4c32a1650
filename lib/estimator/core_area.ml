open Twmc_netlist
open Twmc_geometry

type result = { core_w : int; core_h : int; expansion : int; iterations : int }

let cell_dims (nl : Netlist.t) =
  Array.to_list nl.Netlist.cells
  |> List.map (fun (c : Cell.t) ->
         let b = Shape.bbox (Cell.variant c 0).Cell.shape in
         (Rect.width b, Rect.height b))

let determine ?(fill_target = 0.85) (nl : Netlist.t) =
  let modulation = Modulation.default in
  if Netlist.n_cells nl = 0 then invalid_arg "Core_area.determine: no cells";
  if fill_target <= 0.0 || fill_target > 1.0 then
    invalid_arg "Core_area.determine: fill_target out of (0,1]";
  let dims = cell_dims nl in
  let base_area =
    List.fold_left (fun acc (w, h) -> acc + (w * h)) 0 dims
  in
  let dims_of_area area =
    let w = sqrt area in
    (w, area /. w)
  in
  let ref_w, ref_h = Wire_estimate.reference_dims nl in
  let c_w = Wire_estimate.channel_width ~core_w:ref_w ~core_h:ref_h nl in
  let expansion_at ~core_w ~core_h =
    (* Eqn 5: maximal modulation, unit pin density; C_w is anchored to the
       reference die so the fixed point cannot run away. *)
    let mean = Modulation.alpha modulation in
    let wmax = Modulation.weight modulation ~core_w ~core_h ~x:0.0 ~y:0.0 in
    0.5 *. c_w *. wmax /. mean
  in
  let rec iterate area i =
    let core_w, core_h = dims_of_area area in
    let e = expansion_at ~core_w ~core_h in
    let eff =
      List.fold_left
        (fun acc (w, h) ->
          acc
          +. ((float_of_int w +. (2.0 *. e)) *. (float_of_int h +. (2.0 *. e))))
        0.0 dims
    in
    let area' = eff /. fill_target in
    if i >= 40 || Float.abs (area' -. area) /. area < 1e-4 then
      let core_w, core_h = dims_of_area area' in
      { core_w = int_of_float (Float.round core_w);
        core_h = int_of_float (Float.round core_h);
        expansion = int_of_float (Float.round (expansion_at ~core_w ~core_h));
        iterations = i }
    else iterate (0.5 *. (area +. area')) (i + 1)
  in
  iterate (float_of_int base_area /. fill_target) 1
