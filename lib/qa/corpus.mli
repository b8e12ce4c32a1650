(** The crash corpus: a directory of minimized failing cases.

    Every file is one {!Fuzz_case} in its textual form, named after the
    content digest so re-finding the same minimal reproducer is
    idempotent.  The fuzzer appends to it; CI replays it; a fixed bug's
    file is deleted by hand once the replay passes. *)

val save : dir:string -> ?key:string -> Fuzz_case.t -> string
(** Write the case (creating [dir] if needed) and return its path.  [key]
    is recorded as a comment for the human reading the file. *)

val load_file : string -> (Fuzz_case.t, string) result

val load_dir :
  string -> (string * Fuzz_case.t) list * (string * string) list
(** Every [*.twq] file under the directory, sorted by filename: the
    parseable cases with their paths, and the unparseable files with the
    reason each was rejected.  A missing directory is an empty corpus. *)
