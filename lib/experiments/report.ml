let widths header rows =
  List.mapi
    (fun i h ->
      List.fold_left
        (fun acc row ->
          match List.nth_opt row i with
          | Some cell -> max acc (String.length cell)
          | None -> acc)
        (String.length h) rows)
    header

let table ~header ~rows ppf =
  let ws = widths header rows in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render row =
    String.concat "  " (List.map2 (fun c w -> pad c w) row ws)
  in
  Format.fprintf ppf "%s@." (render header);
  Format.fprintf ppf "%s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') ws));
  List.iter
    (fun row ->
      (* Tolerate ragged rows by padding with empties. *)
      let row =
        row @ List.init (max 0 (List.length header - List.length row)) (fun _ -> "")
      in
      Format.fprintf ppf "%s@." (render row))
    rows

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_string ~header ~rows =
  let line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let write_csv ~path ~header ~rows =
  Twmc_util.Atomic_io.mkdir_p (Filename.dirname path);
  Twmc_util.Atomic_io.write_string path (csv_string ~header ~rows)

let pct f = Printf.sprintf "%.1f" f
let f0 f = Printf.sprintf "%.0f" f
