module Fault = Twmc_util.Fault
module Clock = Twmc_obs.Clock

(* Deadlines are seconds on {!Clock}; a float keeps any budget, however
   large, representable. *)
type t = { deadline : float option }

let now_s () = Clock.s_of_ns (Clock.now_ns ())

let create ?time_budget_s () =
  (match time_budget_s with
  | Some b when Float.is_nan b ->
      invalid_arg "Guard.create: time budget is nan, not a number of seconds"
  | _ -> ());
  let deadline = Option.map (fun b -> now_s () +. b) time_budget_s in
  { deadline }

let expired t =
  (match t.deadline with
  | None -> false
  | Some d -> now_s () >= d)
  (* Simulated expiry: one atomic load, false whenever fault injection is
     disarmed. *)
  || Fault.deadline_pending ()

let should_stop t () = expired t

let remaining_s t =
  Option.map (fun d -> Float.max 0.0 (d -. now_s ())) t.deadline

let sleep_s d = if d > 0.0 then Unix.sleepf d

type 'a outcome =
  | Ok of 'a
  | Failed of Diagnostic.t

let timeout_diag ~name =
  Diagnostic.make ~severity:Diagnostic.Warning ~entity:name ~code:"G401"
    (Printf.sprintf "stage cut short by the wall-clock budget")

let stage t ~name f =
  (* Budget propagation: a stage entered after the deadline never runs — the
     SA loops only poll every 128 moves, so without this check an
     already-expired guard would still buy a sweep's worth of work. *)
  if expired t then Failed (timeout_diag ~name)
  else
    match f () with
    | v -> Ok v
    | exception ((Out_of_memory | Stack_overflow | Sys.Break | Fault.Abort _)
                 as e) ->
        raise e
    | exception e ->
        Failed
          (Diagnostic.make ~severity:Diagnostic.Error ~entity:name ~code:"G400"
             (Printf.sprintf "stage raised %s" (Printexc.to_string e)))
