(** A Domain-pool job scheduler for embarrassingly-parallel experiment
    grids.

    A batch of independent jobs is submitted up front and drained by a pool
    of OCaml 5 [Domain]s, each claiming the next job index from one atomic
    counter ([--jobs N]; the default honours the [JOBS] environment
    variable, then [Domain.recommended_domain_count]).  Jobs are
    crash-isolated: an exception escaping a job marks {e that job} failed
    with a structured {!job_error} — classified by the caller-supplied
    [classify], so the engine itself stays ignorant of VM traps and
    pipeline invariants — and the rest of the batch completes.

    With [jobs = 1] (or a single job) everything runs inline on the calling
    domain, with no spawning: the sequential path the determinism
    regression compares against.

    Observability: per-job wall clock and worker assignment and
    success/failure counts, renderable as a table ({!render_stats}) or as
    JSON ({!stats_json}). *)

type error_kind =
  [ `Trap  (** The simulated machine trapped. *)
  | `Fuel  (** The instruction budget ran out. *)
  | `Invariant  (** A pipeline/image invariant check failed. *)
  | `Failed  (** An explicit [Failure] (e.g. behaviour divergence). *)
  | `Exception  (** Anything else. *) ]

type job_error = { label : string; kind : error_kind; message : string }

val kind_to_string : error_kind -> string
val error_to_string : job_error -> string
val error_json : job_error -> Report.Json.t

type job_stat = {
  label : string;
  wall_s : float;  (** Wall clock (monotonic) spent inside the job. *)
  worker : int;  (** Index of the pool worker that ran it (0 = caller). *)
  alloc_words : int;
      (** Approximate words allocated while the job ran on its domain
          ([Gc.quick_stat] delta: minor plus promoted-free major).
          Attribution, not an exact per-job account — concurrent domains
          share the major counters. *)
}

type stats = {
  pool : int;  (** Worker count actually used. *)
  submitted : int;
  succeeded : int;
  failed : int;
  wall_s : float;  (** Wall clock of the whole batch. *)
  busy_s : float;  (** Summed per-job wall clock (parallel speedup is
                       [busy_s /. wall_s]). *)
  job_stats : job_stat list;  (** In submission order. *)
}

val stats_json : stats -> Report.Json.t
val render_stats : stats -> string
(** One summary line plus an aligned per-job table. *)

val default_jobs : unit -> int
(** [$JOBS] if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)

val run :
  ?jobs:int ->
  ?obs:Obs.t ->
  ?classify:(exn -> error_kind * string) ->
  ?label:(int -> string) ->
  (unit -> 'a) list ->
  ('a, job_error) result array * stats
(** Evaluate every thunk; the result array is in submission order.
    [jobs] (default {!default_jobs}) caps the pool size.
    [classify] turns an escaped exception into a structured error (default:
    [`Exception] with [Printexc.to_string]); [label] names job [i] for
    error messages and per-job stats.  [obs] receives
    submit/start/finish job events (monotonic host clock; each worker
    domain emits into its own trace shard, so tracing does not serialise
    the pool), the [engine.jobs_*] counters, the [engine.job_wall_us] /
    [engine.job_alloc_words] / [engine.queue_wait_us] histograms and the
    [gc.top_heap_words] max-gauge.
    @raise Invalid_argument if [jobs < 1]. *)
