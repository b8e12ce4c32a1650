let save ~dir ?key c =
  Twmc_util.Atomic_io.mkdir_p dir;
  let body = Fuzz_case.to_string c in
  let name =
    Printf.sprintf "case-%s.twq"
      (String.sub (Digest.to_hex (Digest.string body)) 0 12)
  in
  let path = Filename.concat dir name in
  let header =
    match key with None -> "" | Some k -> Printf.sprintf "# failure %s\n" k
  in
  Twmc_util.Atomic_io.write_string path (header ^ body);
  path

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Fuzz_case.of_string s
  | exception Sys_error m -> Error m

let load_dir dir =
  if not (Sys.file_exists dir) then ([], [])
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".twq")
    |> List.sort compare
    |> List.partition_map (fun f ->
           let path = Filename.concat dir f in
           match load_file path with
           | Ok c -> Left (path, c)
           | Error m -> Right (path, m))
