(** Uniform-grid spatial index over integer rectangles, int-keyed.

    The overlap penalty [C2] only needs the pairs of cells whose expanded
    bounding boxes intersect; the index keeps move evaluation O(local
    density) instead of O(cells).  Keys are small non-negative integers
    (cell indices): per-key state lives in flat arrays, queries
    deduplicate with a per-key stamp array and write their hits into a
    caller-owned buffer (no allocation on the {!query_into} path), and
    moving an entry only touches the bins in the symmetric difference of
    its old and new bin ranges. *)

type t

val create : world:Rect.t -> cell_size:int -> t
(** [create ~world ~cell_size] indexes rectangles clipped against [world];
    objects extending outside [world] are clamped into the boundary bins so
    they are still found.  [cell_size] must be positive. *)

val insert : t -> int -> Rect.t -> unit
(** Adds a key with its rectangle.  Keys are non-negative and unique:
    raises [Invalid_argument] on a negative or already-present key. *)

val remove : t -> int -> unit
(** Removes a key.  Raises [Invalid_argument] if absent. *)

val update : t -> int -> Rect.t -> unit
(** Replaces the rectangle of a present key.  O(1) when the new rectangle
    covers the same grid bins; otherwise touches only the bins entering or
    leaving the key's range.  Raises [Invalid_argument] if absent. *)

val update_coords : t -> int -> x0:int -> y0:int -> x1:int -> y1:int -> unit
(** {!update} with the rectangle given by its corners, so a caller holding
    flat coordinates builds no [Rect.t]. *)

val mem : t -> int -> bool

val rect_of : t -> int -> Rect.t
(** Current rectangle of a present key; raises [Invalid_argument] if
    absent. *)

val query : t -> Rect.t -> int list
(** All keys whose rectangle intersects (touching counts) the query
    rectangle; deduplicated, order unspecified. *)

val query_into : t -> x0:int -> y0:int -> x1:int -> y1:int -> int array -> int
(** {!query} of the rectangle [(x0, y0)-(x1, y1)] without building a list:
    writes the keys into the buffer from index 0 and returns how many it
    wrote.  Allocates nothing; this is the move-evaluation hot path.  A
    buffer as long as the largest key plus one always suffices; raises
    [Invalid_argument] if the buffer fills up. *)

val iter_pairs : t -> (int -> Rect.t -> int -> Rect.t -> unit) -> unit
(** Visits every unordered pair of distinct stored objects whose rectangles
    touch, exactly once. *)

val length : t -> int
