module Gen = Twmc_workload.Peko
module Writer = Twmc_netlist.Writer
module Parser = Twmc_netlist.Parser
module Atomic_io = Twmc_util.Atomic_io

let spec_of_scale ?(locality = 0.7) ?(utilization = 0.5) n =
  { Gen.default_spec with
    Gen.name = Printf.sprintf "peko%d" n;
    n_cells = n;
    nets_per_cell = 1.6;
    locality;
    utilization }

let default_scales = [ 25; 49; 100 ]

let save ~dir nl (cert : Gen.certificate) =
  Atomic_io.mkdir_p dir;
  let base = Filename.concat dir cert.Gen.spec.Gen.name in
  Atomic_io.write_string (base ^ ".twn") (Writer.to_string nl);
  Atomic_io.write_string (base ^ ".peko") (Gen.certificate_to_string cert);
  base ^ ".peko"

let load path =
  match Gen.certificate_of_string (Atomic_io.read_string path) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok cert -> (
      let twn = Filename.remove_extension path ^ ".twn" in
      match Parser.parse_file twn with
      | nl -> Ok (nl, cert)
      | exception exn ->
          Error
            (match Parser.error_to_string exn with
            | Some m -> m
            | None -> Printexc.to_string exn))
  | exception Sys_error e -> Error e
