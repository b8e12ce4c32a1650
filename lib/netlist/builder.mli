(** Incremental netlist construction with by-name net resolution.

    [Pin.t] stores a net {e index}, which is unknowable while cells are still
    being declared; the builder lets callers (the parser, the synthetic
    workload generator, examples) name nets with strings and resolves
    indices at [build] time. *)

type t

type pin_spec = {
  pin_name : string;
  net_name : string;
  equiv : int option;
  group : int option;
  seq : int option;
  where : where;
}

and where = At of int * int | On of Pin.edge_restriction

val at : ?equiv:int -> name:string -> net:string -> int * int -> pin_spec
(** A committed pin at a fixed cell-local location. *)

val on :
  ?equiv:int ->
  ?group:int ->
  ?seq:int ->
  name:string ->
  net:string ->
  Pin.edge_restriction ->
  pin_spec
(** An uncommitted pin to be placed on pin sites. *)

val create : name:string -> track_spacing:int -> t

val add_macro :
  t -> name:string -> shape:Twmc_geometry.Shape.t -> pins:pin_spec list -> unit

val add_custom :
  t ->
  name:string ->
  area:int ->
  aspect_lo:float ->
  aspect_hi:float ->
  ?n_variants:int ->
  ?sites_per_edge:int ->
  pins:pin_spec list ->
  unit ->
  unit

val add_custom_instances :
  t ->
  name:string ->
  shapes:Twmc_geometry.Shape.t list ->
  ?sites_per_edge:int ->
  pins:pin_spec list ->
  unit ->
  unit

val set_net_weight : t -> net:string -> h:float -> v:float -> unit
(** May be called before or after the net's pins are declared. *)

val add_constraint : t -> Constr.spec -> unit
(** Appends a placement-constraint spec; cell names resolve at [build]
    time, so constraints may precede or follow their cells. *)

val build : t -> Netlist.t
(** Resolves names and validates; raises [Invalid_argument] on dangling
    weights (a weight for a net no pin mentions), constraints naming
    unknown cells or carrying invalid values, or any [Netlist.make]
    violation. *)

val lint_specs : t -> (string * string * string) list
(** Declaration-level lint, runnable {e before} {!build}: returns
    [(code, entity, message)] triples for every problem detectable from the
    accumulated specs — duplicate cell names (E101), nets with fewer than
    two pins (E102), nonpositive custom areas (E103), invalid aspect ranges
    (E104), [seq] without [group] (E105), weights on undeclared nets (E106),
    nonpositive track spacing (E100), constraints naming unknown cells
    (E107), constraints with invalid values — empty rectangles, nonpositive
    keepout margins, out-of-range density caps, self-referential pairs —
    (E108), pinless cells (W201), duplicate pin names (W202).  Codes
    starting with [E] are errors that would make {!build} raise; [W] codes
    are advisory.  Never raises. *)
