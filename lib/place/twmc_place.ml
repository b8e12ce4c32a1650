(** Placement: the TimberWolfMC stage-1 and stage-2 algorithms. *)

module Params = Params
module Sites = Sites
module Placement = Placement
module Range_limiter = Range_limiter
module Moves = Moves
module Stage1 = Stage1
module Anneal_loop = Anneal_loop
