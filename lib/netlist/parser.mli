(** Parser for the textual netlist format (.twn).

    The format is line-oriented:

    {v
    # comment
    circuit NAME
    track_spacing 2
    net CLK weight 2.0 1.0

    cell ram macro
      tile 0 0 100 80
      tile 0 80 60 120
      pin a net CLK at 10 0
      pin b net D0 at 100 10 equiv 1
    end

    cell alu custom area 5000 aspect 0.5 2.0 variants 5 sites 8
      pin x net CLK on any
      pin y net D0 on left,top group 1 seq 0
    end

    cell pad instances sites 8
      shape rect 40 30
      shape l 40 30 10 10
      instance
        tile 0 0 40 10
        tile 0 10 15 30
      endinstance
      pin p net D0 on any
    end
    v}

    [tile] coordinates and pin [at] locations share one frame per cell; the
    cell is re-centered internally.  Sides in [on] are comma-separated from
    {v left right bottom top v}, or the word [any].  Inside an [instances]
    cell, a candidate geometry is either a [shape] one-liner
    ([rect w h] | [l w h nw nh] | [t w h sw sh] | [u w h nw nh]) or an
    [instance] … [endinstance] block of raw tiles (what {!Writer} emits). *)

exception Parse_error of { file : string; line : int; msg : string }
(** Source path (["<string>"] when parsing from memory), 1-based line
    number, and message.  CRLF line endings are accepted everywhere. *)

val error_to_string : exn -> string option
(** [Some "file:line: message"] for a {!Parse_error}, [None] otherwise. *)

val parse_string : ?file:string -> string -> Netlist.t
(** [file] (default ["<string>"]) is only used to label errors. *)

val parse_file : string -> Netlist.t

val builder_of_string : ?file:string -> string -> Builder.t
(** Parse without building: the populated builder lets a checker lint the
    declarations (duplicate names, dangling nets, degenerate cells) without
    tripping the constructor validation that {!Netlist.make} applies.
    Raises {!Parse_error} on syntax errors only. *)


val read_file : string -> string
(** Raw binary read (CRLF handling happens in the tokenizer).  Raises
    [Sys_error] like the underlying [open_in]. *)
