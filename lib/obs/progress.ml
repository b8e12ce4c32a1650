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
  let whole k = Report.whole_or_unknown (num k) in
  match (e.Report.ev, e.Report.name) with
  | "meta", name -> Some (Printf.sprintf "trace %s (schema v%d)" name e.Report.v)
  | "span_begin", "flow" ->
      let nl = str "netlist" in
      Some
        (Printf.sprintf "flow started: %s (%s cells)"
           (if nl = "" then "?" else nl)
           (whole "cells"))
  | "span_begin", "stage1.anneal" ->
      Some
        (if Float.is_nan (num "replica") then "stage 1: annealing"
         else
           Printf.sprintf "stage 1: annealing (replica %s)" (whole "replica"))
  | "point", "stage1.temp" ->
      st.s1_temps <- st.s1_temps + 1;
      Some
        (Printf.sprintf "stage1%s T=%.4g accept=%.1f%% cost=%s"
           (if Float.is_nan (num "replica") then ""
            else Printf.sprintf "[r%s]" (whole "replica"))
           (num "t")
           (pct (num "acceptance"))
           (whole "cost"))
  | "point", "stage1.winner" ->
      Some
        (Printf.sprintf "stage 1 done: replica %s wins (cost %s)"
           (whole "index") (whole "cost"))
  | "point", "stage2.temp" ->
      st.s2_temps <- st.s2_temps + 1;
      (* Refinement anneals visit many temperatures; report every 8th so a
         tail stays readable. *)
      if st.s2_temps mod 8 = 1 then
        Some
          (Printf.sprintf "stage2 T=%.4g accept=%.1f%% cost=%s"
             (num "t")
             (pct (num "acceptance"))
             (whole "cost"))
      else None
  | "point", "route.assign" ->
      st.passes <- st.passes + 1;
      Some
        (Printf.sprintf "route pass %d: overflow %s -> %s (length %s)"
           st.passes (whole "overflow_before") (whole "overflow_after")
           (whole "length"))
  | "point", "route.iteration" ->
      Some
        (Printf.sprintf
           "refinement %s: %s routed, %s unroutable, overflow %s, TEIL %s"
           (whole "iteration") (whole "routed") (whole "unroutable")
           (whole "overflow") (whole "teil"))
  | "point", "flow.status" ->
      st.done_ <- true;
      Some (Printf.sprintf "flow finished: %s" (str "status"))
  | "span_end", "flow" ->
      st.done_ <- true;
      Some "flow span closed"
  | _ -> None
