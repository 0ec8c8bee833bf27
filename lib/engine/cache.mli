(** A persistent, content-addressed, on-disk result cache.

    Entries live under [<dir>/<kind>-<key>.bin]; [key] is a content digest
    ({!digest}) of everything the cached value depends on, so a changed
    input can never serve a stale entry — it simply hashes to a different
    file.  Each entry starts with a one-line header naming the build that
    stored it (a digest of the running executable, taken once per
    {!create}) and the entry kind.  A changed program is a changed build,
    so an entry another build stored reads as a miss and is overwritten
    by the next {!store}; nothing has to be bumped by hand when a cached
    type or computation changes.

    Writes are atomic (temp file + [Sys.rename]) and the store is safe to
    share between the domains of one process and between concurrent
    processes.  Values are serialised with [Marshal]: each [kind] must be
    used with exactly one OCaml type within a build. *)

type t

val default_dir : string
(** ["_cache"]. *)

val create : ?dir:string -> ?obs:Obs.t -> unit -> t
(** The directory is created lazily on first {!store}.  When [obs] is
    given, every {!find} records its lookup latency into the
    [cache.hit_latency_us] / [cache.miss_latency_us] histograms. *)

val dir : t -> string

val digest : string list -> string
(** Hex content digest of the given strings (length-prefixed, so the
    partition into list elements matters). *)

val find : t -> kind:string -> key:string -> 'a option
(** [None] on a missing entry, one stored by another build, or an
    unreadable one (each counted as a miss; an unreadable entry is also
    counted as an error). *)

val store : t -> kind:string -> key:string -> 'a -> unit
(** Atomically persist an entry; I/O errors are swallowed (and counted) —
    a cache that cannot write degrades to a miss, never to a crash. *)

val memo : t option -> kind:string -> key:string -> (unit -> 'a) -> 'a
(** [find]-or-compute-and-[store]; with [None] just runs the thunk. *)

type stats = { hits : int; misses : int; stores : int; errors : int }
(** [errors] counts unreadable entries and failed writes. *)

val stats : t -> stats
val stats_json : t -> Report.Json.t
val render_stats : t -> string
(** e.g. ["cache _cache: 42 hits, 3 misses, 3 stores"]. *)
