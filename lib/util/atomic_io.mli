(** Atomic file output: write to a temporary file in the destination
    directory, verify the written size, then [Sys.rename] it over the
    target.  On POSIX the rename is atomic, so a crash (or a concurrent
    reader) never observes a truncated file — the target either holds its
    previous contents or the complete new ones.  Every emitter in the
    package (netlist writer, SVG, CSV, checkpoints) routes through here.

    Fault site ["io.write"]: under an armed {!Fault} plan a write here can
    fail with a transient [Sys_error], a detected short write, or a torn
    write that simulates a mid-write crash (partial temp file left behind,
    destination untouched). *)

val write_string : string -> string -> unit
(** [write_string path s] atomically replaces [path]'s contents with [s]. *)

val read_string : string -> string
(** Whole-file read (binary); raises [Sys_error] like [open_in]. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755).  An
    existing directory is fine, including one another process creates
    concurrently; anything else — a file in the way, a permission error —
    raises [Sys_error]. *)
