(** Per-region translation validation of a squashed image: the one
    checker of everything about a single compressed region
    ([squashc check] runs it next to {!Verify}'s whole-image lints; see
    DESIGN.md §6 for which checker owns each obligation).

    {b Entry stubs} (slot-independent).  Every stub decodes to the 2-word
    [bsr rf, decomp(rf) ; tag] form or the 3-word push form, its [bsr]
    lands on the decompressor entry matching its link register, that
    register is not reserved and is dead at the block entry (re-derived
    from the independent {!Dataflow.Liveness} solver, not the
    {!Cfg.liveness} the rewrite consulted), and its tag names the block's
    (region, buffer offset) pair — the word the decompressor resumes at.

    {b Buffer fit}.  Every region image plus the two words the runtime
    reserves fits the allocated buffer, the bound {!Rewrite.build} sizes
    the buffer by.

    {b Region proofs}.  For every compressed region, every cache slot the
    runtime may materialise it into, and every block of the region, the
    prover:

    + decodes the region's slice of the blob with the image's actual
      coder ({!Compress.decode_region}) — a slice that does not decode,
      or whose materialisation is not exactly the declared image size,
      fails the region;
    + materialises the decoded stream for the slot exactly as the
      runtime decompressor would — marker expansion through CreateStub,
      slot-relative displacement rebiasing, instruction re-encoding (a
      rebias that overflows its field is caught here, statically);
    + symbolically executes the original IR block and its materialised
      counterpart over the {!Equiv} word-level domain, and
    + proves that registers, observable effects (stores and system
      calls) and the typed exit match: branch targets resolve to the
      same block (through the buffer for intra-region edges, through
      {!Rewrite.block_addrs} for external ones), calls name the same
      callee with the continuation landing on [return_to]'s first word,
      and expanded calls follow the CreateStub protocol shape.  A marker
      or sentinel left in the materialised buffer fails its block.

    What is {e assumed} rather than proved (each occurrence is counted
    in [conservative]; see DESIGN.md §6): the runtime hook contracts
    (decompressor entry and CreateStub restore-stub protocol), the
    correspondence of retained jump-table dispatch (the loaded table
    {e addresses} are proved equivalent; the entries themselves are
    covered by {!Verify}'s dangling-transfer lint), raw return addresses
    into the buffer (their callee's buffer safety is {!Verify}'s
    unsafe-call lint), and indirect-call target sets (the target
    {e values} are proved equivalent). *)

type fault =
  | Rebias_delta of int
      (** Test-only fault injection: skew the external-target rebias
          delta by this many words for every slot above 0, modelling a
          decompressor that re-aims external displacements wrongly.  The
          prover must then fail on any region with an external transfer
          proved at slot 1 or higher. *)

type failure = {
  rid : int;
  slot : int;  (** Cache slot index the proof was attempted for. *)
  site : string;  (** ["func.b3"] or ["region 2"] for region-level failures. *)
  reason : string;  (** Human-readable divergence trace (multi-line). *)
}

type report = {
  regions : int;
  slots : int;  (** Cache-slot count the image was proved for. *)
  blocks : int;  (** Region blocks examined (once per slot). *)
  proved : int;  (** Block proofs discharged. *)
  stubs : int;  (** Entry-stub obligation sets discharged. *)
  conservative : int;  (** Assumption applications (see above). *)
  failures : failure list;
}

val run : ?slots:int -> ?fault:fault -> Rewrite.t -> report
(** Prove every region of the image for cache slots [0 .. slots-1]
    (default 1).  Self-contained: decodes from the blob, re-derives
    liveness, and resolves addresses through the image's own maps. *)

val failure_message : failure -> string
(** One-line summary (the full [reason] is multi-line). *)

val render : report -> string
(** Failures with their divergence traces, or a one-line success
    summary. *)

val report_json : report -> Report.Json.t
