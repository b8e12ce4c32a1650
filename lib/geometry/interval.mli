(** Half-open integer intervals [lo, hi).

    Intervals are the 1-D workhorse of the layout geometry: tile overlap,
    edge-span intersection during channel definition, and pin projection all
    reduce to interval arithmetic.  An interval with [lo >= hi] is empty. *)

type t = { lo : int; hi : int }

val make : int -> int -> t
(** [make lo hi] builds the interval [lo, hi).  Raises [Invalid_argument]
    if [lo > hi]; [make x x] is the canonical empty interval at [x]. *)

val empty : t
(** The canonical empty interval. *)

val is_empty : t -> bool

val length : t -> int
(** [length i] is [hi - lo], i.e. 0 for empty intervals. *)

val contains : t -> int -> bool
(** [contains i x] is true when [lo <= x < hi]. *)

val contains_interval : t -> t -> bool
(** [contains_interval outer inner] holds when every point of [inner] lies in
    [outer]; an empty [inner] is contained in anything. *)

val inter : t -> t -> t
(** Intersection; empty if the intervals do not overlap. *)

val overlap : t -> t -> int
(** [overlap a b] is [length (inter a b)]. *)

val overlaps : t -> t -> bool
(** True when the open overlap is nonzero (touching intervals do not overlap). *)

val touches : t -> t -> bool
(** True when the intervals share at least one boundary point,
    i.e. [a.hi >= b.lo && b.hi >= a.lo] for nonempty intervals. *)

val hull : t -> t -> t
(** Smallest interval containing both arguments (empty arguments ignored). *)

val shift : t -> int -> t
(** [shift i d] translates both endpoints by [d]. *)

val subtract : t -> t list -> t list
(** [subtract i cuts] removes every interval of [cuts] from [i] and returns
    the remaining pieces in increasing order.  Used to derive the exposed
    boundary segments of a tile that abuts other tiles of the same cell. *)

val compare : t -> t -> int
(** Lexicographic order on (lo, hi). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
