(** The golden-trajectory store: pinned end-to-end results for named
    circuits.

    A golden record captures, for one circuit under the fixed QA profile
    (seed 1, [a_c] 8, 6 routes per net), the final cost terms, TEIL and
    area at both stage boundaries, the routing summary, content digests of
    the input netlist and the final placement/route, and the full stage-1
    per-temperature trace.  Records live in [test/golden/*.golden]; a
    mismatch means the algorithm's behavior changed — deliberately (then
    re-bless) or not (then investigate). *)

type trace_point = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;
}

type t = {
  name : string;
  netlist_digest : string;
  seed : int;
  a_c : int;
  m_routes : int;
  status : string;
  c1 : float;
  c2_raw : float;
  c3 : float;
  c4 : float;
      (** Constraint-penalty term; 0 (and omitted from the file) on
          unconstrained targets. *)
  teil_s1 : float;
  teil_final : float;
  area_s1 : int;
  area_final : int;
  route_length : int;
  route_overflow : int;
  routed : int;
  unroutable : int;
  placement_digest : string;
  route_digest : string;
  trace : trace_point list;  (** Stage-1 trajectory, one point per T. *)
}

val capture : name:string -> Twmc_netlist.Netlist.t -> t
(** Run the resilient flow under the QA profile (stock parameters at
    [a_c = 8], [m_routes = 6], [seed = 1]) and record it.  Raises
    [Failure] if the flow produces no result at all (a golden target must
    at least complete). *)

val to_string : t -> string
val of_string : string -> (t, string) result

val diff : expected:t -> actual:t -> string list
(** Human-readable mismatch lines, [[]] when equivalent.  Digests compare
    exactly; floats to a relative 1e-9 (runs are deterministic — the
    tolerance only absorbs decimal round-tripping).  The trace reports the
    first diverging temperature step. *)

val rebless_hint : string
(** The one-line instruction printed under any golden mismatch. *)

val targets :
  netlists_dir:string -> (string * (unit -> Twmc_netlist.Netlist.t)) list
(** The blessed set: the three example circuits ([small], [medium], [i1])
    loaded from [netlists_dir], plus two synthetic circuits ([synth-a],
    [synth-b]) generated on the fly, plus a constraint-rich circuit
    ([synth-cons]) carrying every constraint type. *)
