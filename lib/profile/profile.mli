(** Basic-block execution profiles (paper, Section 5).

    A profile records, for every basic block, its execution frequency and
    its {e weight} — the number of dynamic instructions it contributed
    (frequency × size, measured exactly from per-word execution counts).
    The total weight is the program's total dynamic instruction count,
    [tot_instr_ct] in the paper.

    Profiles carry {b provenance} ({!source}): exact counts, statistically
    sampled estimates (see {!Vm.sampler}), or values derived by lifecycle
    operations such as merge/decay/truncation (see {!Profile_ops}).
    Provenance is serialised with the profile and participates in cache
    keys downstream, so estimated and exact profiles never alias. *)

type t

type source =
  | Exact  (** Every executed word counted. *)
  | Sampled of { period : int; seed : int }
      (** Estimated from periodic samples, scaled up by [period]. *)
  | Derived of string
      (** Produced by a lifecycle operation; the payload is a short
          human-readable recipe (never contains a newline). *)

val source : t -> source

val collect : ?fuel:int -> Prog.t -> input:string -> t * Vm.outcome
(** Run the program under the profiling VM and aggregate counts per block.
    @raise Vm.Trap if the program traps. *)

val collect_sampled :
  ?fuel:int -> period:int -> seed:int -> Prog.t -> input:string -> t * Vm.outcome
(** Like {!collect}, but under a {!Vm.sampler} with the given period and
    seed: each sampled hit stands for [period] dynamic instructions.
    Block frequencies are estimated from the scaled-up samples of the
    block's first word (the estimator {!collect} uses), falling back to
    weight / block words when the first word was never sampled.  Fully
    deterministic for a fixed seed; [period = 1] reproduces {!collect}
    byte-for-byte.  @raise Invalid_argument if [period < 1]. *)

val empty : t
(** The all-zero profile ([freq] and [weight] are 0 everywhere): everything
    is cold, as with [θ = 1.0] in spirit. *)

val freq : t -> string -> int -> int
(** Execution count of (function, block); 0 if never executed. *)

val weight : t -> string -> int -> int
(** Dynamic instructions attributed to (function, block). *)

val total_weight : t -> int

val merge : t -> t -> t
(** Pointwise sum — combine profiles from several training inputs.  Exact
    inputs merge to an exact profile; anything else is [Derived "merge"].
    For the weighted variant see {!Profile_ops.merge}. *)

val fold :
  (string * int -> freq:int -> weight:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every recorded (function, block) entry, in unspecified
    order. *)

val entries : t -> ((string * int) * int * int) list
(** All [(key, freq, weight)] entries sorted by (function, block) — the
    canonical order used by {!to_string}. *)

val check : t -> Prog.t -> (unit, string list) result
(** Whether every profiled block exists in the program: one error per
    entry that names an unknown function or a block index out of range,
    in {!entries} order.  A profile loaded for a program is checked with
    this before use, and the pipeline re-checks it after every pass. *)

val of_entries : ?source:source -> ((string * int) * int * int) list -> t
(** Build a profile from entries; the total is the entry-weight sum.
    @raise Invalid_argument on a duplicate key or negative count. *)

val to_string : t -> string
(** Serialise: an optional provenance line (omitted for [Exact], keeping
    the historical format stable), a total line, then one
    [func block freq weight] line per block in {!entries} order.  Output
    is deterministic — equal profiles serialise byte-identically. *)

val of_string : string -> (t, string) result
(** Parse {!to_string} output.  Rejects (with 1-based [line N:]
    positions): negative counts or totals, duplicate (func, block)
    entries, duplicate or missing [total] lines, a [total] inconsistent
    with the entry-weight sum, and malformed [source] lines. *)

val pp_summary : Format.formatter -> t -> unit
