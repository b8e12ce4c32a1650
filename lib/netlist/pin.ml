type edge_restriction = Any_edge | Sides of Side.t list

type loc = Fixed of int * int | Uncommitted of edge_restriction

type t = {
  name : string;
  net : int;
  equiv : int option;
  group : int option;
  seq : int option;
  loc : loc;
}

let fixed ~name ~net ?equiv ~x ~y () =
  { name; net; equiv; group = None; seq = None; loc = Fixed (x, y) }

let uncommitted ~name ~net ?equiv ?group ?seq restriction =
  if seq <> None && group = None then
    invalid_arg "Pin.uncommitted: seq requires a group";
  { name; net; equiv; group; seq; loc = Uncommitted restriction }

let is_committed p = match p.loc with Fixed _ -> true | Uncommitted _ -> false
