type pin_ref = { cell : int; pin : int }

type t = {
  name : string;
  hweight : float;
  vweight : float;
  pins : pin_ref array;
}

let make ~name ?(hweight = 1.0) ?(vweight = 1.0) pins =
  if hweight < 0. || vweight < 0. then invalid_arg "Net.make: negative weight";
  { name; hweight; vweight; pins = Array.of_list pins }

let n_pins n = Array.length n.pins
