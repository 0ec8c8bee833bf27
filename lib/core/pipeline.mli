(** The pass pipeline behind {!Squash.run}.

    The pipeline is the paper's transformation sequence, one {!Pass.t} per
    stage:

    - ["resolve"] — constant-propagation resolution of unannotated
      indirect jumps: a [Jump_indirect { table = None; _ }] whose register
      provably holds an entry of one jump table gains that table
      annotation, shrinking both the never-compress set and every
      successor over-approximation downstream (§6.2)
    - ["cold"] — cold-block identification (§5)
    - ["unswitch"] — jump-table unswitching (§6.2); omitted by
      {!of_options} when [options.unswitch] is false
    - ["exclude"] — never-compress set: the entry function, setjmp
      callers, functions with unanalysable indirect jumps, and unmatched
      dispatches (§2.2, §6.2); after ["unswitch"], whose unmatched
      dispatches it excludes
    - ["regions"] — compressible-region formation and packing (§4)
    - ["buffer-safe"] — buffer-safety analysis (§6.1); honours
      [options.use_buffer_safe] by treating every function as unsafe when
      the optimisation is off, and [options.sharp_buffer_safe] by running
      {!Buffer_safe.analyze_sharp} instead of the conservative analysis
    - ["rewrite"] — the stub/decompressor image build (§2–3)

    {!execute} runs a pass list over a {!Pass.state}, optionally tracing
    each pass and validating the IR after every pass; {!check_image} is
    the whole-image check that follows the list. *)

exception Check_failed of { pass : string; errors : string list }
(** Raised by [execute ~check_each:true] when validation fails after a
    pass (the damage happened in exactly [pass]), and by {!check_image}
    (as pass ["lint"] or ["prove"]) when the finished image fails. *)

val resolve_pass : Pass.t
val cold_pass : Pass.t
val unswitch_pass : Pass.t
val exclude_pass : Pass.t
val regions_pass : Pass.t
val buffer_safe_pass : Pass.t
val rewrite_pass : Pass.t

val of_options : Pass.options -> Pass.t list
(** The pass list, in paper order: all seven passes, less ["unswitch"]
    when [options.unswitch] is false. *)

val execute :
  ?check_each:bool ->
  ?trace:(string -> unit) ->
  ?obs:Obs.t ->
  passes:Pass.t list ->
  Pass.state ->
  Pass.state
(** Run [passes] in order.  A pass whose prerequisite did not run fails
    with the [Invalid_argument] of the {!Pass} accessor it calls.

    With [~check_each:true], after every pass the state's program must
    pass {!Prog.validate} and the profile must still match it
    ({!Profile.check}: a pass that renumbers or drops blocks must rebuild
    the profile); a failure raises {!Check_failed} naming the offending
    pass.  [trace] receives one line per pass as it completes: wall-clock
    ms, instruction and word deltas, and the pass's {!Pass.note}; none of
    these is computed without [trace].  [obs] receives
    {!Obs.Event.Pass_begin}/{!Obs.Event.Pass_end} span events (wall clock)
    and a ["pipeline.passes_run"] counter bump per pass. *)

val check_image : Rewrite.t -> unit
(** The check of a finished image: {!Verify.run}'s whole-image lints,
    raising {!Check_failed} as pass ["lint"] on any error-severity
    diagnostic, then {!Prove.run} over two cache slots, raising it as pass
    ["prove"] when any region fails a proof obligation. *)
