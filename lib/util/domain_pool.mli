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

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns [jobs - 1] worker domains, applies [f], and
    joins the workers even when [f] raises; the pool must not be used
    afterwards.  [jobs] is clamped to at least 1.  A pool with [jobs = 1]
    spawns nothing and maps sequentially. *)

val with_optional_pool :
  jobs:int -> obs:Twmc_obs.Ctx.t -> (t option -> 'a) -> 'a
(** [with_optional_pool ~jobs ~obs f] is [f None] when [jobs <= 1], so
    every call stays on the caller's domain with no synchronization;
    otherwise it is {!with_pool} applied to [f (Some pool)].  When [obs]
    is live the pool times every executed chunk (monotonic clock, per
    participating domain) and, once its workers are joined, emits one
    [pool.domain] point per domain, caller first ([slot], busy seconds
    [busy_s], and [utilization] = busy / pool lifetime), then one
    [pool.shutdown] point ([jobs], [tasks] = chunks executed, [batches] =
    [parallel_map] calls, [imbalance] = max / mean busy across domains).
    With a disabled handle the pool does no timing at all; timing never
    affects mapped results. *)
