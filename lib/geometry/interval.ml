type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let empty = { lo = 0; hi = 0 }
let is_empty i = i.lo >= i.hi
let length i = if is_empty i then 0 else i.hi - i.lo
let contains i x = x >= i.lo && x < i.hi

let contains_interval outer inner =
  is_empty inner || (inner.lo >= outer.lo && inner.hi <= outer.hi)

let inter a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if lo >= hi then empty else { lo; hi }

let overlap a b = length (inter a b)
let overlaps a b = overlap a b > 0

let touches a b =
  (not (is_empty a)) && (not (is_empty b)) && a.hi >= b.lo && b.hi >= a.lo

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }

let shift i d = { lo = i.lo + d; hi = i.hi + d }

let subtract i cuts =
  let cuts =
    cuts
    |> List.filter_map (fun c ->
           let c = inter c i in
           if is_empty c then None else Some c)
    |> List.sort (fun a b -> Int.compare a.lo b.lo)
  in
  let rec go pos acc = function
    | [] -> if pos < i.hi then { lo = pos; hi = i.hi } :: acc else acc
    | c :: rest ->
        let acc = if c.lo > pos then { lo = pos; hi = c.lo } :: acc else acc in
        go (Int.max pos c.hi) acc rest
  in
  if is_empty i then [] else List.rev (go i.lo [] cuts)

(* Lexicographic on (lo, hi), the order [Stdlib.compare] gives the pair. *)
let compare a b = match Int.compare a.lo b.lo with 0 -> Int.compare a.hi b.hi | c -> c
let equal a b = a.lo = b.lo && a.hi = b.hi
let pp ppf i = Format.fprintf ppf "[%d,%d)" i.lo i.hi
