(** A clock that runs at the speed of a reference host.

    On a host whose cores are shared, the same work can take 1.5 times
    as long in one second or minute as in the next.  The benchmark reads
    every time from this clock instead of the host's.  Each reading ends
    a segment of host time (the work since the previous reading) and,
    unless the segment is shorter than [min_gap], times a fixed
    calibration kernel right there: one run per [every] host seconds of
    the segment, at least one and at most [max_batch].  The segment then
    counts as its host length times [reference_s /. k], where [k] is the
    mean of the kernel's mean duration in the batch before the segment and
    in the batch after it.  A segment shorter than [min_gap] counts at the
    previous segment's rate.  Time spent in the kernel is not counted.

    On a host running at the reference speed one second of this clock is
    one host second; when the kernel runs 1.5 times slower around some
    work, that work's host time is divided by 1.5.  The kernel is the
    benchmark's own code and allocates nothing, so a change to the
    program or to its heap cannot move it. *)

type t

val create : raw:(unit -> float) -> kernel:(unit -> unit) -> reference_s:float -> t
(** A clock reading [raw] (seconds, monotonic), calibrated by timing
    [kernel], whose duration at the reference speed is [reference_s].
    The clock starts at 0, after one untimed run of the kernel (to warm
    it up) and a first calibration.
    @raise Invalid_argument if [reference_s <= 0]. *)

val now : t -> float
(** Reference seconds since {!create}; ends the current segment, so it
    may run the kernel. *)

val every : float
(** 0.1 s. *)

val min_gap : float
(** 2 ms, about one kernel run. *)

val max_batch : int
(** 20. *)

val samples : t -> float list
(** Every kernel duration measured so far (host seconds), oldest first. *)

val host_seconds : t -> float
(** Host seconds from {!create} to the last {!now}, less the time spent
    in the kernel. *)

val kernel : unit -> unit
(** The calibration kernel: a pointer chase through a 32 KB cyclic
    permutation (built once, on the first call) mixed with branchy
    integer arithmetic, in the proportions of an interpreter's dispatch
    loop.  It stays in the core's caches and allocates nothing. *)

val kernel_reference_s : float
(** {!kernel}'s duration at the reference speed: about its median on a
    2.1 GHz Xeon vCPU. *)
