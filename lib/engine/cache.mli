(** The directory an on-disk experiment-result store once used.  The
    experiments now memoise in-process only ({!Memo}), so nothing reads or
    writes it. *)

val default_dir : string
(** ["_cache"].  squashbench's cache guard reads it to assert that no run
    leaves files there. *)
