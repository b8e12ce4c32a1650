(** Minimal SVG document builder for layout renderings.

    Coordinates are layout grid units; the builder flips the y-axis (layout
    y grows upward, SVG y grows downward) and adds a margin, so callers draw
    in layout space; one layout unit is one SVG unit. *)

type t

val create : viewport:Twmc_geometry.Rect.t -> ?margin:int -> unit -> t

val rect :
  t ->
  ?fill:string ->
  ?stroke:string ->
  ?stroke_width:float ->
  ?opacity:float ->
  Twmc_geometry.Rect.t ->
  unit

val line :
  t ->
  ?stroke:string ->
  ?stroke_width:float ->
  ?dashed:bool ->
  int * int ->
  int * int ->
  unit

val circle : t -> ?fill:string -> ?r:float -> int * int -> unit

val text : t -> ?size:float -> ?fill:string -> int * int -> string -> unit

val to_string : t -> string
(** The complete [<svg>…</svg>] document. *)

val write : string -> t -> unit
