(* Streaming progress rendering: a fold over trace events that turns the
   interesting ones into one-line status messages, for following a live
   trace file ([twmc report tail]) and, eventually, the daemon's progress
   API.  Pure state machine — no I/O, no clocks — so it is unit-testable
   and reusable against any transport. *)

type state = {
  mutable s1_temps : int;
  mutable s2_temps : int;
  mutable passes : int;
  mutable done_ : bool;
}

let create () = { s1_temps = 0; s2_temps = 0; passes = 0; done_ = false }
let finished st = st.done_

let pct f = 100.0 *. f

let feed st (e : Report.event) =
  let num = Report.attr_f e and str = Report.attr_s e in
  match (e.Report.ev, e.Report.name) with
  | "meta", name -> Some (Printf.sprintf "trace %s (schema v%d)" name e.Report.v)
  | "span_begin", "flow" ->
      let nl = str "netlist" and cells = num "cells" in
      Some
        (Printf.sprintf "flow started: %s (%s cells)"
           (if nl = "" then "?" else nl)
           (if Float.is_nan cells then "?"
            else string_of_int (int_of_float cells)))
  | "span_begin", "stage1.anneal" ->
      let r = num "replica" in
      Some
        (if Float.is_nan r then "stage 1: annealing"
         else Printf.sprintf "stage 1: annealing (replica %d)" (int_of_float r))
  | "point", "stage1.temp" ->
      st.s1_temps <- st.s1_temps + 1;
      let r = num "replica" in
      Some
        (Printf.sprintf "stage1%s T=%.4g accept=%.1f%% cost=%.0f"
           (if Float.is_nan r then ""
            else Printf.sprintf "[r%d]" (int_of_float r))
           (num "t")
           (pct (num "acceptance"))
           (num "cost"))
  | "point", "stage1.winner" ->
      Some
        (Printf.sprintf "stage 1 done: replica %d wins (cost %.0f)"
           (int_of_float (num "index"))
           (num "cost"))
  | "point", "stage2.temp" ->
      st.s2_temps <- st.s2_temps + 1;
      (* Refinement anneals visit many temperatures; report every 8th so a
         tail stays readable. *)
      if st.s2_temps mod 8 = 1 then
        Some
          (Printf.sprintf "stage2 T=%.4g accept=%.1f%% cost=%.0f"
             (num "t")
             (pct (num "acceptance"))
             (num "cost"))
      else None
  | "point", "route.assign" ->
      st.passes <- st.passes + 1;
      Some
        (Printf.sprintf "route pass %d: overflow %.0f -> %.0f (length %.0f)"
           st.passes
           (num "overflow_before")
           (num "overflow_after")
           (num "length"))
  | "point", "route.iteration" ->
      Some
        (Printf.sprintf
           "refinement %d: %.0f routed, %.0f unroutable, overflow %.0f, \
            TEIL %.0f"
           (int_of_float (num "iteration"))
           (num "routed")
           (num "unroutable")
           (num "overflow")
           (num "teil"))
  | "point", "flow.status" ->
      st.done_ <- true;
      Some (Printf.sprintf "flow finished: %s" (str "status"))
  | "span_end", "flow" ->
      st.done_ <- true;
      Some "flow span closed"
  | _ -> None
