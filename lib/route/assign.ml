module G = Twmc_channel.Graph
module Rng = Twmc_sa.Rng

type result = {
  chosen : int array;
  total_length : int;
  overflow : int;
  initial_overflow : int;
  edge_density : int array;
  attempts : int;
  skipped : int list;
}

let run ?m ~rng ~graph ~alternatives () =
  let n_nets = Array.length alternatives in
  (* A net with no stored alternative cannot abort the whole selection:
     mark it unroutable (skipped) and select among the rest. *)
  let skipped = ref [] in
  Array.iteri
    (fun i a -> if Array.length a = 0 then skipped := i :: !skipped)
    alternatives;
  let skipped = List.rev !skipped in
  let live i = Array.length alternatives.(i) > 0 in
  let m =
    match m with
    | Some m -> m
    | None ->
        Array.fold_left
          (fun acc a -> Int.max acc (Array.length a))
          1 alternatives
  in
  let n_edges = G.n_edges graph in
  let density = Array.make n_edges 0 in
  let chosen = Array.make n_nets 0 in
  let use sign (r : Steiner.route) =
    List.iter (fun e -> density.(e) <- density.(e) + sign) r.Steiner.edges
  in
  Array.iteri (fun i a -> if live i then use 1 a.(0)) alternatives;
  let capacity e = graph.G.edges.(e).G.capacity in
  let overflow_of_edge e =
    let o = density.(e) - capacity e in
    if o > 0 then o else 0
  in
  (* The over-capacity edges, as 0/1 flags in a Fenwick tree over edge
     ids: [n_over] of them, and the [r]-th smallest found in O(log E). *)
  let over = Array.make (n_edges + 1) 0 and n_over = ref 0 in
  let flag e delta =
    n_over := !n_over + delta;
    let i = ref (e + 1) in
    while !i <= n_edges do
      over.(!i) <- over.(!i) + delta;
      i := !i + (!i land (- !i))
    done
  in
  let nth_over r =
    let pos = ref 0 and rem = ref r and step = ref 1 in
    while 2 * !step <= n_edges do
      step := 2 * !step
    done;
    while !step > 0 do
      let next = !pos + !step in
      if next <= n_edges && over.(next) <= !rem then begin
        pos := next;
        rem := !rem - over.(next)
      end;
      step := !step / 2
    done;
    !pos
  in
  let x = ref 0 in
  for e = 0 to n_edges - 1 do
    let o = overflow_of_edge e in
    x := !x + o;
    if o > 0 then flag e 1
  done;
  (* [X] of the all-shortest (k = 1) selection, before any interchange —
     the "overflow before" a telemetry consumer plots per iteration. *)
  let initial_overflow = !x in
  let l = ref 0 in
  Array.iteri
    (fun i a -> if live i then l := !l + a.(chosen.(i)).Steiner.length)
    alternatives;
  (* Nets using each edge, maintained incrementally as chosen routes move. *)
  let users = Array.make n_edges [] in
  let add_user i r =
    List.iter (fun e -> users.(e) <- i :: users.(e)) r.Steiner.edges
  in
  let remove_user i r =
    List.iter
      (fun e -> users.(e) <- List.filter (fun j -> j <> i) users.(e))
      r.Steiner.edges
  in
  Array.iteri (fun i a -> if live i then add_user i a.(0)) alternatives;
  (* ΔX and ΔL are computed by applying the change for real and reverting
     on rejection — routes are short, so this is cheap and exact even when
     the old and new routes share edges. *)
  let apply i k =
    let old_r = alternatives.(i).(chosen.(i)) in
    let new_r = alternatives.(i).(k) in
    let dx = ref 0 in
    let shift sign e =
      let before = overflow_of_edge e in
      density.(e) <- density.(e) + sign;
      let after = overflow_of_edge e in
      dx := !dx + after - before;
      if before = 0 && after > 0 then flag e 1
      else if before > 0 && after = 0 then flag e (-1)
    in
    List.iter (shift (-1)) old_r.Steiner.edges;
    List.iter (shift 1) new_r.Steiner.edges;
    remove_user i old_r;
    add_user i new_r;
    chosen.(i) <- k;
    (!dx, new_r.Steiner.length - old_r.Steiner.length)
  in
  let attempts = ref 0 in
  let idle = ref 0 in
  (* The paper's stopping budget is M·N idle attempts; floor it so tiny
     instances still get a fair number of random draws. *)
  let max_idle = Int.max 200 (m * n_nets) in
  let rec loop () =
    if !x > 0 && !idle < max_idle then begin
      incr attempts;
      (if !n_over > 0 then
         (* The draw of picking from the over-capacity edges listed in
            decreasing id order: the [r]-th of that list is the
            [(n_over - 1 - r)]-th smallest id. *)
         let e = nth_over (!n_over - 1 - Rng.int_incl rng 0 (!n_over - 1)) in
         match users.(e) with
         | [] -> incr idle
         | us -> (
             let i = Rng.pick_list rng us in
             let n_alts = Array.length alternatives.(i) in
             if n_alts < 2 then incr idle
             else
               (* Try a random alternative with ΔX <= 0 (apply & revert). *)
               let k = Rng.int_incl rng 0 (n_alts - 1) in
               if k = chosen.(i) then incr idle
               else
                 let old_k = chosen.(i) in
                 let dx, dl = apply i k in
                 if dx < 0 || (dx = 0 && dl <= 0) then begin
                   x := !x + dx;
                   l := !l + dl;
                   if dx = 0 && dl = 0 then incr idle else idle := 0
                 end
                 else begin
                   ignore (apply i old_k);
                   incr idle
                 end));
      loop ()
    end
  in
  loop ();
  { chosen;
    total_length = !l;
    overflow = !x;
    initial_overflow;
    edge_density = density;
    attempts = !attempts;
    skipped }
