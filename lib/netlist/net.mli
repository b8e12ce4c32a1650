(** Nets: weighted sets of pin references.

    The TEIC term [C1] (Eqn 6) is the sum over nets of the horizontal span
    times [h(n)] plus the vertical span times [v(n)]; the spans are computed
    from exact pin locations. *)

type pin_ref = { cell : int; pin : int }
(** Indices into the netlist's cell array and that cell's pin array. *)

type t = {
  name : string;
  hweight : float;  (** [h(n)] of Eqn 6 *)
  vweight : float;  (** [v(n)] of Eqn 6 *)
  pins : pin_ref array;
}

val make :
  name:string -> ?hweight:float -> ?vweight:float -> pin_ref list -> t
(** Weights default to 1.0, in which case the TEIC equals the TEIL. *)

val n_pins : t -> int
