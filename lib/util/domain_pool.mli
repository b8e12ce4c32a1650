(** A spawn-once pool of worker domains for deterministic data parallelism.

    OCaml 5 domains are expensive to create (each one owns a minor heap and
    participates in every GC), so the pool spawns its workers exactly once
    and reuses them for every subsequent call.  The only parallel primitive
    offered is a chunked [parallel_map]: the input array is cut into at most
    [jobs] contiguous chunks, each chunk is processed by one domain, and
    results are written into their original slots.  There is no work
    stealing and no dynamic scheduling — a chunk's results depend only on
    the chunk's elements and [f], so the output array is identical whatever
    [jobs] is.  That property is what lets the annealer promise
    bit-identical results for [--jobs 1] and [--jobs N].

    The caller's domain participates as a worker during [parallel_map], so
    a pool with [jobs = n] uses exactly [n] domains ([n - 1] spawned).
    [f] must not itself call into the same pool (chunks would deadlock
    waiting for workers that are waiting for them). *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs] defaults to
    {!Domain.recommended_domain_count}[ ()] and is clamped to at least 1.
    A pool with [jobs = 1] spawns nothing and maps sequentially. *)

val jobs : t -> int

val parallel_map : t -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool ~f arr] is [Array.mapi f arr], computed on up to
    [jobs pool] domains.  Chunks are contiguous index ranges, so element
    [i] is always computed as [f i arr.(i)] regardless of parallelism; the
    result is bit-identical across pool sizes whenever [f] is pure in its
    arguments.  If any application of [f] raises, the first exception (in
    index order) is re-raised in the caller after all chunks settle. *)

val run : t -> (unit -> 'a) list -> 'a array
(** [run pool thunks] evaluates the thunks, at most [jobs pool] at a time,
    returning results in thunk order.  Convenience wrapper over
    {!parallel_map}. *)

val set_metrics : t -> Twmc_obs.Metrics.t -> unit
(** Attach a metrics registry.  From then on the pool times every executed
    chunk (monotonic clock, per participating domain) and, on {!shutdown},
    records: counter [pool.tasks] (chunks executed), counter
    [pool.batches] ([parallel_map] calls), series [pool.busy_s] (busy
    seconds, one sample per domain, caller first), series
    [pool.utilization] (busy / pool wall lifetime per domain) and gauge
    [pool.imbalance] (max/mean busy across domains).  With the default
    null registry the pool does no timing at all; metrics never affect
    mapped results. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent; the pool must not be used
    afterwards.  Pools that are never shut down leak their domains until
    program exit, which is harmless for a pool owned by [main]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] creates a pool, applies [f], and shuts the pool
    down even when [f] raises. *)

val with_optional_pool :
  jobs:int -> metrics:Twmc_obs.Metrics.t -> (t option -> 'a) -> 'a
(** [with_optional_pool ~jobs ~metrics f] is [f None] when [jobs <= 1], so
    every call stays on the caller's domain with no synchronization;
    otherwise it is {!with_pool} applied to [f (Some pool)], with [metrics]
    attached through {!set_metrics}. *)
