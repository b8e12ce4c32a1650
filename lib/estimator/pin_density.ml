open Twmc_netlist
open Twmc_geometry

type t = {
  d_p : float;
  (* Per cell, indexed [4 * variant + side_index side]: the side's raw pin
     density and its factor f_rp.  Sides without edges keep 0 and 1. *)
  density : float array array;
  f_rp : float array array;
}

let side_index = function
  | Side.Left -> 0
  | Side.Right -> 1
  | Side.Bottom -> 2
  | Side.Top -> 3

let compute (nl : Netlist.t) =
  let d_p = Netlist.average_pin_density nl in
  let table init =
    Array.map
      (fun c -> Array.make (4 * Cell.n_variants c) init)
      nl.Netlist.cells
  in
  let density = table 0.0 and f_rp = table 1.0 in
  Array.iteri
    (fun ci (c : Cell.t) ->
      for vi = 0 to Cell.n_variants c - 1 do
        let v = Cell.variant c vi in
        let pins_per_edge = Cell.static_pins_per_edge c ~variant:vi in
        (* Aggregate edge pin counts and lengths per side, in edge order. *)
        let pins = Array.make 4 0.0 and len = Array.make 4 0
        and seen = Array.make 4 false in
        List.iteri
          (fun ei e ->
            let s = side_index (Side.of_edge e) in
            pins.(s) <- pins.(s) +. pins_per_edge.(ei);
            len.(s) <- len.(s) + Edge.length e;
            seen.(s) <- true)
          v.Cell.edges;
        for s = 0 to 3 do
          if seen.(s) then begin
            let d =
              if len.(s) = 0 then 0.0 else pins.(s) /. float_of_int len.(s)
            in
            density.(ci).((4 * vi) + s) <- d;
            f_rp.(ci).((4 * vi) + s) <-
              (if d_p <= 0.0 then 1.0 else Float.max 1.0 (d /. d_p))
          end
        done
      done)
    nl.Netlist.cells;
  { d_p; density; f_rp }

let d_p t = t.d_p

let f_rp t ~cell ~variant side =
  t.f_rp.(cell).((4 * variant) + side_index side)

let f_rp_table t = t.f_rp

let side_density t ~cell ~variant side =
  t.density.(cell).((4 * variant) + side_index side)
