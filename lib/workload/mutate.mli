(** Adversarial netlist mutators for the QA fuzzing harness.

    Each mutation takes a valid netlist and returns a new (usually still
    valid, deliberately hostile) netlist exercising a corner the synthetic
    generator never produces: sliver and near-degenerate macros, duplicated
    pin names, pathological aspect-ratio ranges, bus nets touching most of
    the circuit, and near-disconnected topologies held together by a single
    net.  Mutations are deterministic in [(mutation, rng state, input)].

    A mutation may legitimately produce a netlist the lint layer rejects —
    that is the point: the fuzzer's contract is that every such input is
    refused with a structured diagnostic, never a crash. *)

type t =
  | Sliver_macros of int
      (** Replace up to [n] macro shapes with 1-track-wide slivers of the
          same height (zero-width in routing terms); committed pins are
          clamped onto the new boundary box. *)
  | Tiny_cells of int
      (** Replace up to [n] macro shapes with minimal 1×1 cells. *)
  | Duplicate_pins of int
      (** On up to [n] cells, add a second pin carrying an {e existing}
          pin's name (lint W202) at the same location / restriction, wired
          to the same net. *)
  | Pathological_aspect of int
      (** Convert up to [n] cells into soft cells whose aspect ratio may
          range over [0.05, 20] — far outside anything the generator or the
          paper's circuits contain.  Committed pins become uncommitted. *)
  | Heavy_net of int
      (** Grow the first net into a bus touching up to [n] distinct cells
          (one extra pin each). *)
  | Near_disconnected
      (** Split the cells into two halves and delete every net spanning
          them except one — the layout's only bridge.  Cells may end up
          pinless (lint W201). *)
  | Add_blockages of int
      (** Add [n] blockage slabs straddling the core center, each about one
          typical cell wide — cells can rarely clear them entirely. *)
  | Add_keepouts of int
      (** Give up to [n] cells a keepout halo of half their own height. *)
  | Conflicting_fixed of int
      (** Fix [n] {e pairs} of cells to the same center point: each fix is
          satisfiable alone but the pair maximizes overlap. *)
  | Zero_slack_regions of int
      (** Lock up to [n] cells into regions exactly their own bounding-box
          size — a single feasible position each. *)
  | Pin_boundary of int
      (** Pin up to [n] cells to core edges, cycling over the four sides. *)
  | Align_chain of int
      (** Chain up to [n] cells with pairwise alignment constraints on
          alternating axes (over-constrained lattice). *)
  | Abut_pairs of int
      (** Require [n] pairs of cells to abut. *)
  | Tight_density of int
      (** Add [n] nested density windows around the core center with a
          near-zero (1 permille) cap — almost any occupancy is over
          budget. *)

val all_kinds : t list
(** One representative of each constructor, with small default counts —
    the fuzzer's sampling universe. *)

val is_constraint_kind : t -> bool

val to_string : t -> string
(** Stable textual form, e.g. ["sliver:3"]; round-trips with
    {!of_string}. *)

val of_string : string -> t option

val apply : rng:Twmc_sa.Rng.t -> t -> Twmc_netlist.Netlist.t -> Twmc_netlist.Netlist.t
(** Apply one mutation.  Pre-existing placement constraints are carried
    through unchanged (constraint mutators append to them).  Raises
    whatever {!Twmc_netlist.Builder.build} raises when the mutated
    structure is invalid — callers that need crash-freedom (the fuzz
    runner) catch [Invalid_argument] and classify the case as
    rejected-by-construction. *)

val apply_all :
  rng:Twmc_sa.Rng.t -> t list -> Twmc_netlist.Netlist.t -> Twmc_netlist.Netlist.t
(** Left-to-right composition of {!apply}. *)
