(** The benchmark's own arithmetic: percentile ranks, the median, the
    Harrell-Davis quantile estimate, the geometric mean and the
    runtime-overhead derivation.  Kept apart from
    main.ml so the tests in [test/] can check it without running a
    workload. *)

val rank : p:float -> int -> int
(** Nearest-rank position (1-based) of the [p]-quantile among [n] sorted
    samples: [ceil (p·n)], clamped to [1 .. n].
    @raise Invalid_argument if [n < 1] or [p] is outside [0, 1]. *)

val beyond : p:float -> int -> int
(** Samples strictly above {!rank}: [n - rank ~p n]. *)

val min_tail : int
(** 10: a tail percentile is only trustworthy with this many samples
    beyond it. *)

val tail_ok : p:float -> int -> bool
(** [beyond ~p n >= min_tail]. *)

val percentile : p:float -> float list -> float
(** The nearest-rank [p]-quantile.  @raise Invalid_argument on []. *)

val median : float list -> float
(** The middle sample, or the mean of the two middle ones for an even
    count.  @raise Invalid_argument on []. *)

val harrell_davis : p:float -> float list -> float
(** The Harrell-Davis estimate of the [p]-quantile: a weighted mean of
    every order statistic, the [i]-th of [n] weighted by the chance that a
    Beta([p(n+1)], [(1-p)(n+1)]) variable falls in [((i-1)/n, i/n]].  It
    moves smoothly with the samples, where a single order statistic jumps
    when the quantile falls in a gap between clusters (paper-grid's two
    operating points give its prove times two clusters of equal size).
    @raise Invalid_argument on [] or [p] outside (0, 1). *)

val regularized_beta : a:float -> b:float -> float -> float
(** [I_x(a, b)], the Beta([a], [b]) distribution function at [x].
    @raise Invalid_argument if [a <= 0] or [b <= 0]. *)

val geomean : float list -> float
(** [exp (mean (log x))].
    @raise Invalid_argument on [] or a non-positive element. *)

val runtime_overhead : run_s:float -> icount:int -> vm_mips:float -> float
(** Host seconds a squashed run spent outside plain dispatch: [run_s]
    minus the time the same program's unsquashed dispatch rate
    ([vm_mips], million instructions per second) needs for [icount]
    instructions.  @raise Invalid_argument if [vm_mips <= 0]. *)
