(** The Metropolis acceptance function (Sec 2.1, part 2 of the algorithm).
    The annealing loop that uses it is {!Twmc_place.Anneal_loop}. *)

val metropolis : Rng.t -> t:float -> delta:float -> bool
(** Standard acceptance: always for [delta <= 0], else with probability
    [exp (-delta /. t)].  [t <= 0] accepts only improving moves. *)
