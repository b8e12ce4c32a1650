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
      (fst a', Interval.make (Int.min (snd a') (snd b')) (Int.max (snd a') (snd b')))
    else (snd a', Interval.make (Int.min (fst a') (fst b')) (Int.max (fst a') (fst b')))
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

let rank_dir = function H -> 0 | V -> 1
let rank_side = function Low -> 0 | High -> 1

(* Lexicographic on (dir, pos, span, side), constructors in declaration
   order: the order [Stdlib.compare] gives the tuple. *)
let compare a b =
  match Int.compare (rank_dir a.dir) (rank_dir b.dir) with
  | 0 -> (
      match Int.compare a.pos b.pos with
      | 0 -> (
          match Interval.compare a.span b.span with
          | 0 -> Int.compare (rank_side a.side) (rank_side b.side)
          | c -> c)
      | c -> c)
  | c -> c

let equal a b = a.dir = b.dir && a.pos = b.pos && Interval.equal a.span b.span && a.side = b.side

let pp ppf e =
  Format.fprintf ppf "%s@%d %a %s"
    (match e.dir with H -> "H" | V -> "V")
    e.pos Interval.pp e.span
    (match e.side with Low -> "low" | High -> "high")
