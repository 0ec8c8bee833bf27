(** Whole-image lints over a squashed executable: the checks that need
    the whole program at once, which a per-region proof cannot express.
    [squashc check] runs them next to {!Prove}, which owns everything about
    a single region — its entry stubs, its stream, its materialisation in
    every slot and its fit in the runtime buffer (DESIGN.md §6 lists which
    checker owns each obligation).  Nothing is executed; violations come
    back as typed diagnostics:

    - {b transfers} ({!Dangling_transfer}): no surviving branch,
      fall-through, call, jump-table entry or materialised code address
      targets the {e interior} of a removed region — every such target is
      either never-compressed code or a region entry (which is where the
      stub lives).  Intra-region edges and calls to a callee wholly inside
      the same region are exempt, exactly mirroring the rewrite's plan.
    - {b unchanged calls} ({!Unsafe_call}): every plain [bsr] the rewrite
      left in compressed code (the Section 6.1 optimisation) targets a
      known function entry whose callee is buffer-safe under the sharpened
      analysis ({!Buffer_safe.analyze_sharp}).  Since the sharpened safe
      set contains the conservative one, images built with either analysis
      verify.
    - {b unresolved indirection} ({!Unresolved_indirect}, warning): an
      indirect call whose candidate set is empty — no function's address
      is ever taken — cannot be verified further and would trap at run
      time.
    - {b dead surviving code} ({!Unreachable_code}, warning): a block the
      rewrite emitted into the text (or a whole surviving function) that
      is unreachable — function-level over the callgraph with the
      {!Consts}-resolved indirect edges, block-level via a forward
      {!Dataflow} reachability client. *)

type severity = Error | Warning

type kind = Dangling_transfer | Unsafe_call | Unresolved_indirect | Unreachable_code

type diag = {
  severity : severity;
  kind : kind;
  site : string;  (** Where: ["func.b3"], ["func.table0[2]"], ["region 1 @ 7"]. *)
  region : int option;  (** Region id the diagnostic is about, if any. *)
  addr : int option;  (** Byte address in the image, when one is known. *)
  message : string;
}

val run : Rewrite.t -> diag list
(** All diagnostics, in discovery order.  Self-contained: recomputes the
    address-taken set and the sharpened buffer-safe analysis from the
    image's own program and regions. *)

val errors : diag list -> diag list
(** The [Error]-severity subset ([squashc check] exits 1 when non-empty). *)

val kind_name : kind -> string
(** Stable kebab-case name: ["dangling-transfer"], ["unsafe-call"], … *)

val severity_name : severity -> string
val message : diag -> string
(** One-line rendering: ["error unsafe-call @ site: …"]. *)

val render : diag list -> string
(** Aligned text table of the diagnostics. *)

val to_json : diag list -> Report.Json.t
(** [[{"severity": …, "kind": …, "site": …, "region": …, "addr": …,
    "message": …}, …]]; [region]/[addr] are [null] when unknown. *)
