(* Crash-consistent file replacement: write to a same-directory temp file,
   verify the size, then [Sys.rename] over the destination.  At every point
   the destination holds either its old bytes or the complete new bytes —
   never a prefix — which is what lets checkpoints survive torn writes and
   mid-write kills.

   Fault site "io.write" (see [Fault]): torn writes truncate the temp file
   and simulate a crash (no cleanup, like SIGKILL); short writes truncate
   silently so the size check below must catch them; transient errors raise
   [Sys_error] before anything is written. *)

let fault_site = "io.write"

let read_string path = In_channel.with_open_bin path In_channel.input_all

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in_noerr ic;
  n

(* Rewrite [path] with the first half of its own content — the on-disk shape
   of a write cut off mid-stream. *)
let truncate_half path =
  let content = read_string path in
  let half = String.length content / 2 in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub content 0 half))

(* [write_file path f] runs [f] on a channel backed by a fresh temporary
   file next to [path], checks that the file holds exactly the bytes [f]
   wrote (raising [Sys_error] on a short write), and renames it to [path].
   The temporary file is removed if [f], the size check or the rename
   raises — except under a simulated crash ([Fault.Torn_write]), which
   leaves the partial temp file exactly as a killed process would. *)
let write_file path f =
  match Fault.io fault_site with
  | Fault.Io_transient ->
      raise (Sys_error (path ^ ": injected transient I/O error"))
  | fault -> (
      let dir = Filename.dirname path in
      let tmp, oc =
        Filename.open_temp_file ~temp_dir:dir
          ("." ^ Filename.basename path ^ ".") ".tmp"
      in
      let expected = ref 0 in
      match
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            f oc;
            expected := pos_out oc)
      with
      | () ->
          (* Exceptions raised below (torn-write crash simulation, the short
             -write guard) are branch code, not scrutinee code: they escape
             without the [exception e] cleanup, which is deliberate for the
             torn case — a killed process cleans nothing up. *)
          (match fault with
          | Fault.Io_torn ->
              truncate_half tmp;
              raise
                (Fault.Injected { site = fault_site; kind = Fault.Torn_write })
          | Fault.Io_short -> truncate_half tmp
          | Fault.No_io_fault | Fault.Io_transient -> ());
          (* A short write (injected or real: full disk, signal) must never
             be renamed into place. *)
          let written = file_size tmp in
          if written <> !expected then begin
            (try Sys.remove tmp with Sys_error _ -> ());
            raise
              (Sys_error
                 (Printf.sprintf "%s: short write (%d of %d bytes)" path
                    written !expected))
          end;
          Sys.rename tmp path
      | exception e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          raise e)

let write_string path s = write_file path (fun oc -> output_string oc s)

let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": Not a directory"))
  end
  else if dir <> "" then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* Losing a race to another creator of [dir] is success. *)
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end
