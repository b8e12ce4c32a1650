(** The annealing loop shared by both stages.

    Sec 2.1 characterizes the algorithm by five parts: the [generate]
    function, the acceptance function, the temperature update, the
    inner-loop criterion and the stopping criterion.  The caller supplies
    the first as a {!Moves.ctx} (which also fixes the acceptance:
    Metropolis, via {!Moves.generate}) together with its cooling schedule;
    this driver owns the rest:

    - the inner loop of [A = A_c · N_c] attempts (Eqn 17), polling
      [should_stop] every 128 moves;
    - per temperature: a re-sum of the C1 accumulator
      ({!Placement.resum}, correcting its float drift), a {!temp_record}, a
      flight-recorder note and a [<stage>.temp] trace point;
    - the stopping criterion ({!stop}), plus the temperature floor;
    - the overlap-elimination quench tail that follows it;
    - the end-of-anneal move counters and [<stage>.classes] points. *)

type temp_record = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;
      (** Accepted displacements, interchanges, orientation changes and
          aspect rescues per attempt — pin and variant moves excluded. *)
  window : float * float;  (** Range-limiter spans at this temperature. *)
}

type tag =
  | Stage1 of int option  (** Stage-1 anneal, of this best-of-K replica. *)
  | Stage2 of int option  (** Stage-2 refinement anneal, of this iteration. *)
(** Which stage is annealing.  It fixes the event names ([stage1.*] or
    [stage2.*]), including the anneal's span (["stage1.anneal"] or
    ["stage2.anneal"], with the index, the cell count and the start
    temperature) and its quench tail's (["stage1.quench"] or
    ["stage2.quench"], with the index), the index attribute they carry
    ([replica] or [iteration], when given), and the stage's extras: stage
    1 adds the window spans and the Eqn 19–21 average cell area ([wx],
    [wy], [est]) to its temperature points and carries its full
    move-outcome counters on its [.moves] point (stage 2 carries attempts,
    displacements and pin moves). *)

type stop =
  | Min_window
      (** Stop after an inner loop at the minimum window span (Sec 3.3). *)
  | Frozen of int
      (** Stop once the cost is unchanged for this many consecutive inner
          loops (the final stage-2 refinement uses 3). *)

type result = {
  trace : temp_record list;  (** One record per annealing temperature. *)
  temperatures : int;  (** Inner loops run, quench loops included. *)
  interrupted : bool;
      (** [should_stop] fired during the run or holds at its end. *)
}

val avg_cell_area : Placement.t -> float
(** Mean expanded cell area ({!Placement.expanded_area} over the cell
    count): the [c̄_a] that scales the temperature profile (Eqns 19–21). *)

val run :
  tag ->
  ?should_stop:(unit -> bool) ->
  ?obs:Twmc_obs.Ctx.t ->
  rng:Twmc_sa.Rng.t ->
  schedule:Twmc_sa.Schedule.t ->
  t_start:float ->
  t_floor:float ->
  stop:stop ->
  Moves.ctx ->
  result
(** Anneals the move set's placement from [t_start] down [schedule] until
    the [stop] rule fires or the next temperature falls below [t_floor],
    then quenches: inner loops at a temperature falling by 0.6× per loop
    (starting from the current temperature when [stop] fired, from the next
    one at the floor) that end once the overlap [C₂] is zero, has not
    improved for 20 loops, or after 150 loops.  After the first 12 quench
    loops, every other loop moves cells within a constant window of 0.20 of
    the core spans, so a jammed cell can hop over a neighbour when that
    strictly lowers the cost.  The quench compensates for the paper's
    [T₀ ≈ 0] tail, which the window criterion cuts off on small cores.

    When [should_stop] fires the run ends after the current poll interval,
    without a quench.  Each inner loop ends with {!Placement.resum}, so
    the placement's cost caches are left as a full recomputation would
    leave them, bit for bit, either way.  Quench loops count in
    [temperatures]; they emit no [.temp] point, and the quench runs inside
    a ["<stage>.quench"] span within the anneal's.

    [obs] (default disabled, zero overhead) receives the events described
    at {!tag}: one [.temp] point per temperature, then at the end one
    [.moves] point and one [.classes] point per move class, after the
    ["<stage>.anneal"] span closes.  Instrumentation
    only reads state: results are bit-identical with it on or off. *)
