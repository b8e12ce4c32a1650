(** Simulated-annealing substrate: deterministic RNG, the TimberWolfMC
    cooling schedules, and the Metropolis acceptance function. *)

module Rng = Rng
module Schedule = Schedule
module Anneal = Anneal
