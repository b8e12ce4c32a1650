(* Spawn-once worker pool.  One mutex guards the task queue and the batch
   counter; workers block on [work_cv] between batches.  The pool serves one
   [parallel_map] batch at a time (the orchestrating flow is sequential
   between its parallel regions), so a single [unfinished] counter per pool
   is enough. *)

module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr
module Clock = Twmc_obs.Clock

type task = unit -> unit

type t = {
  jobs : int;
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  queue : task Queue.t;
  mutable unfinished : int;
  mutable stop : bool;
  mutable shut : bool;
  mutable workers : unit Domain.t list;
  (* Observability: with a disabled handle no clock is ever read.
     [busy_ns.(slot)] is only written by the domain owning that slot
     (0 = the caller), so no extra locking is needed. *)
  obs : Obs.t;
  created_ns : int;
  busy_ns : float array;
  tasks_run : int Atomic.t;
  mutable batches : int;
}

let finish_task t =
  Mutex.lock t.m;
  t.unfinished <- t.unfinished - 1;
  if t.unfinished = 0 then Condition.broadcast t.done_cv;
  Mutex.unlock t.m

(* Run one queued chunk on behalf of [slot], timing it when the obs handle
   is live.  Timing wraps only the execution — it cannot change what the
   chunk computes. *)
let execute t ~slot task =
  if Obs.tracing t.obs then begin
    let t0 = Clock.now_ns () in
    let finally () =
      t.busy_ns.(slot) <- t.busy_ns.(slot) +. float_of_int (Clock.now_ns () - t0);
      Atomic.incr t.tasks_run
    in
    Fun.protect ~finally task
  end
  else task ()

let worker_loop t ~slot =
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.work_cv t.m
    done;
    if Queue.is_empty t.queue then begin
      (* stop && empty: drain complete, exit. *)
      running := false;
      Mutex.unlock t.m
    end
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.m;
      execute t ~slot task;
      finish_task t
    end
  done

let create ~jobs ~obs =
  let jobs = max 1 jobs in
  let t =
    { jobs;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      queue = Queue.create ();
      unfinished = 0;
      stop = false;
      shut = false;
      workers = [];
      obs;
      created_ns = Clock.now_ns ();
      busy_ns = Array.make jobs 0.0;
      tasks_run = Atomic.make 0;
      batches = 0 }
  in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~slot:(i + 1)));
  t

let parallel_map (type b) t ~f arr : b array =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then begin
    if Obs.tracing t.obs then begin
      Mutex.lock t.m;
      t.batches <- t.batches + 1;
      Mutex.unlock t.m
    end;
    let run () = Array.mapi f arr in
    if Obs.tracing t.obs then begin
      let t0 = Clock.now_ns () in
      let r = run () in
      t.busy_ns.(0) <- t.busy_ns.(0) +. float_of_int (Clock.now_ns () - t0);
      Atomic.incr t.tasks_run;
      r
    end
    else run ()
  end
  else begin
    (* [res] holds options so no dummy of type [b] is needed (and flat float
       arrays stay sound). *)
    let res : b option array = Array.make n None in
    let chunks = min t.jobs n in
    let exns = Array.make chunks None in
    let chunk c () =
      let lo = c * n / chunks and hi = (((c + 1) * n) / chunks) - 1 in
      try
        (* Fault site: fires inside the worker (or helping caller), and the
           injected exception rides the normal chunk-error channel back to
           the join — a faulted task can never wedge the pool. *)
        Fault.point "pool.task";
        for i = lo to hi do
          res.(i) <- Some (f i arr.(i))
        done
      with e -> exns.(c) <- Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.m;
    if t.shut then begin
      Mutex.unlock t.m;
      invalid_arg "Domain_pool.parallel_map: pool is shut down"
    end;
    t.unfinished <- t.unfinished + chunks;
    t.batches <- t.batches + 1;
    for c = 0 to chunks - 1 do
      Queue.push (chunk c) t.queue
    done;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    (* The caller helps: run queued chunks until none are left, then wait
       for the workers to finish theirs. *)
    let draining = ref true in
    while !draining do
      Mutex.lock t.m;
      match Queue.pop t.queue with
      | task ->
          Mutex.unlock t.m;
          execute t ~slot:0 task;
          finish_task t
      | exception Queue.Empty ->
          while t.unfinished > 0 do
            Condition.wait t.done_cv t.m
          done;
          Mutex.unlock t.m;
          draining := false
    done;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      exns;
    Array.map (function Some v -> v | None -> assert false) res
  end

let run t thunks =
  parallel_map t ~f:(fun _ th -> th ()) (Array.of_list thunks)

(* One point per domain (the caller first), then the pool's totals. *)
let report t =
  if Obs.tracing t.obs then begin
    let wall_ns = float_of_int (max 1 (Clock.now_ns () - t.created_ns)) in
    let total = ref 0.0 and maxb = ref 0.0 in
    Array.iteri
      (fun slot ns ->
        Obs.point t.obs ~name:"pool.domain"
          ~attrs:
            [ ("slot", Attr.Int slot); ("busy_s", Attr.Float (ns *. 1e-9));
              ("utilization", Attr.Float (ns /. wall_ns)) ]
          ();
        total := !total +. ns;
        if ns > !maxb then maxb := ns)
      t.busy_ns;
    let mean = !total /. float_of_int t.jobs in
    Obs.point t.obs ~name:"pool.shutdown"
      ~attrs:
        [ ("jobs", Attr.Int t.jobs);
          ("tasks", Attr.Int (Atomic.get t.tasks_run));
          ("batches", Attr.Int t.batches);
          ("imbalance",
           Attr.Float (if mean > 0.0 then !maxb /. mean else 1.0)) ]
      ()
  end

let shutdown t =
  Mutex.lock t.m;
  if t.shut then Mutex.unlock t.m
  else begin
    t.stop <- true;
    t.shut <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- [];
    report t
  end

let pool ~jobs ~obs f =
  let t = create ~jobs ~obs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let with_pool ~jobs f = pool ~jobs ~obs:Obs.disabled f

let with_optional_pool ~jobs ~obs f =
  if jobs <= 1 then f None else pool ~jobs ~obs (fun t -> f (Some t))
