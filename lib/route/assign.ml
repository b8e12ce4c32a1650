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

let run ?m ~rng ~graph ~(alternatives : Steiner.alternatives array) () =
  let n_nets = Array.length alternatives in
  let n_alts i = alternatives.(i).Steiner.n_routes in
  (* A net with no stored alternative cannot abort the whole selection:
     mark it unroutable (skipped) and select among the rest. *)
  let skipped = ref [] in
  for i = n_nets - 1 downto 0 do
    if n_alts i = 0 then skipped := i :: !skipped
  done;
  let m =
    match m with
    | Some m -> m
    | None ->
        Array.fold_left
          (fun acc (a : Steiner.alternatives) -> Int.max acc a.Steiner.n_routes)
          1 alternatives
  in
  let n_edges = G.n_edges graph in
  let density = Array.make n_edges 0 in
  let chosen = Array.make n_nets 0 in
  for i = 0 to n_nets - 1 do
    let a = alternatives.(i) in
    if a.Steiner.n_routes > 0 then
      for j = a.Steiner.edge_at.(0) to a.Steiner.edge_at.(1) - 1 do
        let e = a.Steiner.edge_ids.(j) in
        density.(e) <- density.(e) + 1
      done
  done;
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
  for i = 0 to n_nets - 1 do
    if n_alts i > 0 then l := !l + alternatives.(i).Steiner.lengths.(0)
  done;
  (* The nets using each edge, oldest first, maintained as chosen routes
     move: a net leaves an edge's array in place, keeping the others'
     order, and joins at the end. *)
  let users = Array.make n_edges [||] and n_users = Array.make n_edges 0 in
  let add_user i k =
    let a = alternatives.(i) in
    for j = a.Steiner.edge_at.(k) to a.Steiner.edge_at.(k + 1) - 1 do
      let e = a.Steiner.edge_ids.(j) in
      let n = n_users.(e) in
      if n = Array.length users.(e) then begin
        let grown = Array.make (Int.max 4 (2 * n)) 0 in
        for u = 0 to n - 1 do
          grown.(u) <- users.(e).(u)
        done;
        users.(e) <- grown
      end;
      users.(e).(n) <- i;
      n_users.(e) <- n + 1
    done
  in
  let remove_user i k =
    let a = alternatives.(i) in
    for j = a.Steiner.edge_at.(k) to a.Steiner.edge_at.(k + 1) - 1 do
      let e = a.Steiner.edge_ids.(j) in
      let us = users.(e) and n = n_users.(e) - 1 in
      let u = ref 0 in
      while us.(!u) <> i do
        incr u
      done;
      for v = !u to n - 1 do
        us.(v) <- us.(v + 1)
      done;
      n_users.(e) <- n
    done
  in
  for i = 0 to n_nets - 1 do
    if n_alts i > 0 then add_user i 0
  done;
  (* ΔX and ΔL are computed by applying the change for real and reverting
     on rejection — routes are short, so this is cheap and exact even when
     the old and new routes share edges.  [shift] moves net [i]'s route
     [r] on ([sign] 1) or off (-1) the densities, adding its ΔX to [dx]. *)
  let dx = ref 0 in
  let shift i r sign =
    let a = alternatives.(i) in
    for j = a.Steiner.edge_at.(r) to a.Steiner.edge_at.(r + 1) - 1 do
      let e = a.Steiner.edge_ids.(j) in
      let before = overflow_of_edge e in
      density.(e) <- density.(e) + sign;
      let after = overflow_of_edge e in
      dx := !dx + after - before;
      if before = 0 && after > 0 then flag e 1
      else if before > 0 && after = 0 then flag e (-1)
    done
  in
  (* Moves net [i] to route [k] and returns ΔX. *)
  let apply i k =
    let old_k = chosen.(i) in
    dx := 0;
    shift i old_k (-1);
    shift i k 1;
    remove_user i old_k;
    add_user i k;
    chosen.(i) <- k;
    !dx
  in
  let attempts = ref 0 in
  let idle = ref 0 in
  (* The paper's stopping budget is M·N idle attempts; floor it so tiny
     instances still get a fair number of random draws. *)
  let max_idle = Int.max 200 (m * n_nets) in
  while !x > 0 && !idle < max_idle do
    incr attempts;
    if !n_over > 0 then begin
      (* The draw of picking from the over-capacity edges listed in
         decreasing id order: the [r]-th of that list is the
         [(n_over - 1 - r)]-th smallest id. *)
      let e = nth_over (!n_over - 1 - Rng.int_incl rng 0 (!n_over - 1)) in
      let n = n_users.(e) in
      if n = 0 then incr idle
      else begin
        (* The draw of [Rng.pick_list] from the users newest first: its
           [r]-th is the [(n - 1 - r)]-th oldest. *)
        let i = users.(e).(n - 1 - Rng.int_incl rng 0 (n - 1)) in
        let count = n_alts i in
        if count < 2 then incr idle
        else
          (* Try a random alternative with ΔX <= 0 (apply & revert). *)
          let k = Rng.int_incl rng 0 (count - 1) in
          if k = chosen.(i) then incr idle
          else begin
            let old_k = chosen.(i) in
            let lengths = alternatives.(i).Steiner.lengths in
            let dl = lengths.(k) - lengths.(old_k) in
            let dx = apply i k in
            if dx < 0 || (dx = 0 && dl <= 0) then begin
              x := !x + dx;
              l := !l + dl;
              if dx = 0 && dl = 0 then incr idle else idle := 0
            end
            else begin
              ignore (apply i old_k);
              incr idle
            end
          end
      end
    end
  done;
  { chosen;
    total_length = !l;
    overflow = !x;
    initial_overflow;
    edge_density = density;
    attempts = !attempts;
    skipped = !skipped }
