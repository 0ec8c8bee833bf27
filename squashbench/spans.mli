(** In-memory trace spans and their self times. *)

type span = {
  id : int;
  name : string;  (** The layer call, e.g. ["prove.run"]. *)
  parent : int;  (** Id of the enclosing span; [-1] at top level. *)
  cell : int;  (** Cell id the span belongs to; [-1] outside cells. *)
  start : float;  (** Seconds, the benchmark's reference clock. *)
  stop : float;
}

val covered : lo:float -> hi:float -> (float * float) list -> float
(** Length of the union of the intervals, clipped to [[lo, hi]]. *)

val self_times : span list -> (span * float) list
(** Every span with its self time: its duration minus the part of its
    interval that its direct children cover. *)

val to_json : span -> string
(** One JSON object per span, for the trace file. *)
