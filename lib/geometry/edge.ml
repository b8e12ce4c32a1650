type dir = H | V
type side = Low | High
type t = { dir : dir; pos : int; span : Interval.t; side : side }

let make dir ~pos ~span ~side = { dir; pos; span; side }
let length e = Interval.length e.span

(* Transform an edge by transforming its two endpoints and re-deriving
   direction; the outward side follows from the action on a point nudged
   toward the outward normal. *)
let transform o e =
  let a, b =
    match e.dir with
    | V -> ((e.pos, e.span.Interval.lo), (e.pos, e.span.Interval.hi))
    | H -> ((e.span.Interval.lo, e.pos), (e.span.Interval.hi, e.pos))
  in
  (* A point just outside the material, in doubled coordinates to stay on the
     integer grid: outward offset of 1 applied to the doubled midpoint. *)
  let out2 =
    let mx2 = fst a + fst b and my2 = snd a + snd b in
    let dx, dy =
      match (e.dir, e.side) with
      | V, Low -> (-1, 0)
      | V, High -> (1, 0)
      | H, Low -> (0, -1)
      | H, High -> (0, 1)
    in
    (mx2 + dx, my2 + dy)
  in
  let a' = Orient.apply o a and b' = Orient.apply o b in
  let ox2, oy2 = Orient.apply o out2 in
  let dir' = if fst a' = fst b' then V else H in
  let pos', span' =
    if dir' = V then
      (fst a', Interval.make (min (snd a') (snd b')) (max (snd a') (snd b')))
    else (snd a', Interval.make (min (fst a') (fst b')) (max (fst a') (fst b')))
  in
  let side' =
    match dir' with
    | V -> if ox2 < 2 * pos' then Low else High
    | H -> if oy2 < 2 * pos' then Low else High
  in
  { dir = dir'; pos = pos'; span = span'; side = side' }

let faces a b =
  a.dir = b.dir
  && a.side <> b.side
  && Interval.overlaps a.span b.span
  && (if a.side = High then a.pos <= b.pos else b.pos <= a.pos)

let gap a b = abs (a.pos - b.pos)
let common_span a b = Interval.inter a.span b.span

let point_on e c = match e.dir with V -> (e.pos, c) | H -> (c, e.pos)

let compare a b =
  Stdlib.compare
    (a.dir, a.pos, a.span.Interval.lo, a.span.Interval.hi, a.side)
    (b.dir, b.pos, b.span.Interval.lo, b.span.Interval.hi, b.side)

let equal a b = compare a b = 0

let pp ppf e =
  Format.fprintf ppf "%s@%d %a %s"
    (match e.dir with H -> "H" | V -> "V")
    e.pos Interval.pp e.span
    (match e.side with Low -> "low" | High -> "high")
