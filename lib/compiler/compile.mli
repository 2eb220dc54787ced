(** Compiler driver: source program to datapath / FSM / RTG documents.

    The program is split at its [partition] markers into temporal
    partitions; each partition is lowered ({!Ir}, {!Cfg}) and mapped to
    hardware ({!Hwgen}, or {!Share} when operator sharing is enabled).
    The RTG chains the partitions in source order.

    Hardware configurations start with freshly-initialized registers, so
    scalar values cannot flow between partitions — data must pass through
    the shared memories, as on the paper's platform. {!check_partition_flow}
    rejects programs whose later partitions may read a variable before
    writing it while an earlier partition wrote it. *)

type options = {
  share_operators : bool;
      (** Bind same-kind FUs to shared instances (fewer operators, extra
          muxes). Default [false]. *)
  optimize : bool;
      (** Run the {!Optimize} source-level pass first. Default [false]. *)
  fold_branches : bool;
      (** Merge branch tests into the preceding statement's state when
          safe (see {!Hwgen.generate}). Default [false]. *)
}

val default_options : options

type partition = {
  index : int;
  datapath : Netlist.Datapath.t;
  fsm : Fsmkit.Fsm.t;
  cfg : Cfg.t;
  state_count : int;
  fu_count : int;
}

type t = {
  program : Lang.Ast.program;
      (** The program the hardware implements (post-{!Optimize} when the
          pass is enabled). *)
  source : Lang.Ast.program;
      (** The program as written, before any source pass — the reference
          side of the {!Tv.Optimize_pass} certificate. *)
  options : options;
  partitions : partition list;
  rtg : Rtg.t;
  mutable tv : Tv.report list;
      (** Per-pass translation-validation certificates under
          {!Tv.default_bounds}, filled by {!certify} (empty until
          requested). *)
  absint : Absint.cache;
      (** The memo of {!Absint} analyses shared by {!certify},
          {!lint_deep} and [Fastsim.admissible]: each distinct design
          is analysed once per compile. *)
}

exception Error of string list

val compile :
  ?options:options -> ?deep_gate:bool -> ?tv_gate:bool ->
  Lang.Ast.program -> t
(** Raises {!Lang.Check.Invalid} on source errors and {!Error} on
    partition-flow violations — or when {!lint} reports an error-severity
    diagnostic on the generated design (the post-generation gate: a
    code-generation bug is caught before any simulation runs).
    [~deep_gate:true] gates on {!lint_deep} instead, additionally
    aborting when the abstract interpreter proves a defect (out-of-bounds
    store, dynamically closing combinational cycle, ...). Default
    [false]: the deep analysis costs a fixpoint per configuration.
    [~tv_gate:true] additionally runs {!certify} and raises {!Error}
    when any enabled pass is {!Tv.Refuted} — translation validation as a
    compile-time gate ({!Tv.Inconclusive} passes the gate; it is a
    resource verdict, surfaced as a TV002 warning by {!lint_deep}). *)

val certify : ?bounds:Tv.bounds -> t -> Tv.report list
(** One certificate per enabled transforming pass per partition, in
    pipeline order (optimize, share, fold): the {!Optimize} rewrite is
    validated against the pre-pass CFG by {!Tv.validate_source}; the
    {!Share} binding and the branch fold are validated against freshly
    regenerated reference hardware (the same partition CFG with the pass
    under scrutiny disabled) by {!Tv.validate_hardware}, including the
    {!Absint} invariant-preservation query over the program's read-only
    memories. A call without [bounds] is served from, and stored in,
    the [t.tv] cache; a call with explicit [bounds] always re-runs the
    validators and leaves the cache alone. An empty list means no
    transforming pass was enabled. *)

val lint : t -> Diag.t list
(** Whole-design lint of the generated bundle ({!Lint.run_bundle} over
    every partition's documents and the RTG). [compile] already gates on
    the error-severity subset; warnings are available here. *)

val lint_deep : t -> Lint.deep
(** {!Lint.run_deep} over the generated bundle: {!lint} plus the
    {!Absint} abstract-interpretation provers (AI0xx diagnostics,
    per-configuration analysis timings), with the program's read-only
    memory initializers declared to the engine. The {!certify}
    certificates are appended as TV001/TV002/TV003 diagnostics. *)

val check_partition_flow : Lang.Ast.program -> string list
(** Diagnostics for cross-partition scalar flow (empty = fine). *)

val datapath_ref : t -> int -> string
val fsm_ref : t -> int -> string
(** Document names of partition [k], as referenced by the RTG. *)
