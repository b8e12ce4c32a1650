type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let make ~x0 ~y0 ~x1 ~y1 =
  if x0 > x1 || y0 > y1 then invalid_arg "Rect.make: inverted rectangle";
  { x0; y0; x1; y1 }

let of_corners (xa, ya) (xb, yb) =
  { x0 = Int.min xa xb; y0 = Int.min ya yb; x1 = Int.max xa xb; y1 = Int.max ya yb }

let of_center_dims ~cx ~cy ~w ~h =
  if w < 0 || h < 0 then invalid_arg "Rect.of_center_dims: negative dims";
  let x0 = cx - (w / 2) and y0 = cy - (h / 2) in
  { x0; y0; x1 = x0 + w; y1 = y0 + h }

let empty = { x0 = 0; y0 = 0; x1 = 0; y1 = 0 }
let is_empty r = r.x0 >= r.x1 || r.y0 >= r.y1
let width r = if is_empty r then 0 else r.x1 - r.x0
let height r = if is_empty r then 0 else r.y1 - r.y0
let area r = width r * height r
let center r = (r.x0 + ((r.x1 - r.x0) / 2), r.y0 + ((r.y1 - r.y0) / 2))
let xspan r = if is_empty r then Interval.empty else Interval.make r.x0 r.x1
let yspan r = if is_empty r then Interval.empty else Interval.make r.y0 r.y1

let inter a b =
  let x0 = Int.max a.x0 b.x0
  and y0 = Int.max a.y0 b.y0
  and x1 = Int.min a.x1 b.x1
  and y1 = Int.min a.y1 b.y1 in
  if x0 >= x1 || y0 >= y1 then empty else { x0; y0; x1; y1 }

let inter_area a b = area (inter a b)
let overlaps a b = inter_area a b > 0

let touches a b =
  (not (is_empty a))
  && (not (is_empty b))
  && a.x1 >= b.x0 && b.x1 >= a.x0 && a.y1 >= b.y0 && b.y1 >= a.y0

let contains_point r (x, y) = x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1

let contains_rect outer inner =
  is_empty inner
  || (inner.x0 >= outer.x0 && inner.y0 >= outer.y0 && inner.x1 <= outer.x1
     && inner.y1 <= outer.y1)

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else
    { x0 = Int.min a.x0 b.x0;
      y0 = Int.min a.y0 b.y0;
      x1 = Int.max a.x1 b.x1;
      y1 = Int.max a.y1 b.y1 }

let translate r ~dx ~dy =
  { x0 = r.x0 + dx; y0 = r.y0 + dy; x1 = r.x1 + dx; y1 = r.y1 + dy }

let expand r ~left ~right ~bottom ~top =
  let x0 = r.x0 - left
  and x1 = r.x1 + right
  and y0 = r.y0 - bottom
  and y1 = r.y1 + top in
  if x0 >= x1 || y0 >= y1 then empty else { x0; y0; x1; y1 }

let expand_uniform r e = expand r ~left:e ~right:e ~bottom:e ~top:e

let pairwise_disjoint rects =
  let rec go = function
    | [] -> true
    | r :: rest -> List.for_all (fun s -> not (overlaps r s)) rest && go rest
  in
  go rects

let disjoint_union_area rects =
  assert (pairwise_disjoint rects);
  List.fold_left (fun acc r -> acc + area r) 0 rects

(* Lexicographic on (x0, y0, x1, y1), the order [Stdlib.compare] gives
   the tuple. *)
let compare a b =
  match Int.compare a.x0 b.x0 with
  | 0 -> (
      match Int.compare a.y0 b.y0 with
      | 0 -> (
          match Int.compare a.x1 b.x1 with 0 -> Int.compare a.y1 b.y1 | c -> c)
      | c -> c)
  | c -> c

let equal a b = a.x0 = b.x0 && a.y0 = b.y0 && a.x1 = b.x1 && a.y1 = b.y1

let pp ppf r =
  Format.fprintf ppf "@[<h>(%d,%d)-(%d,%d)@]" r.x0 r.y0 r.x1 r.y1
