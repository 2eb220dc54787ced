(** Whole-design static analysis over the XML dialects.

    The dialect checkers ([Datapath.check_diags], [Fsm.check_diags],
    [Rtg.check_diags]) validate one document structurally; this module
    layers the analyses that need a view of the whole design on top of
    them, and links the documents of a complete bundle together. It is
    the fast gate in front of the simulate-and-diff loop: many defect
    classes a miscompiled design can exhibit are decidable without
    running a single cycle.

    Datapath analyses (beyond DP001–DP012):
    - [DP013] {e error} — combinational loop: a cycle through
      non-sequential operators (per {!Operators.Opspec}) would oscillate
      or deadlock the zero-delay simulator. Downgraded to a {e warning}
      when every cycle of the component runs through a mux: operator
      sharing routes pooled units through muxes whose selects never close
      the loop within a single FSM state, so such designs may be
      dynamically acyclic (the levelized cycle simulator still refuses
      them);
    - [DP014] {e warning} — dead operator: no path from the operator to a
      register, memory, status, or test aid — it can never influence an
      observable;
    - [DP015] {e warning} — a control signal declared but driving no net.

    FSM analyses (beyond FSM001–FSM011):
    - [FSM012] {e warning} — state unreachable from the initial state;
    - [FSM013] {e warning} — unsatisfiable transition guard (never true
      for any assignment of the status inputs);
    - [FSM014] {e warning} — shadowed transition: every status assignment
      satisfying its guard also satisfies an earlier transition's guard,
      so it can never be taken.

    Cross-document linking of a configuration / bundle:
    - [XL001] {e error} — RTG references a document missing from the
      bundle;
    - [XL002] {e error} — FSM output with no matching datapath control;
    - [XL003] {e error} — datapath control no FSM output drives;
    - [XL004] {e error} — FSM output / datapath control width mismatch;
    - [XL005] {e error} — FSM input with no matching datapath status;
    - [XL006] {e warning} — datapath status the FSM never reads;
    - [XL007] {e error} — FSM input / datapath status width mismatch;
    - [XL008] {e warning} — control asserted by the FSM but unconnected
      in the datapath;
    - [XL009] {e error} — configuration whose FSM has no done state: it
      can never complete, so the RTG cannot terminate through it.

    Loading diagnostics ({!run_file} / {!run_dir}):
    - [XML001] {e error} — XML parse error;
    - [XML002] {e error} — schema/dialect error (wrong or unknown root);
    - [XML003] {e error} — document rejected while loading (e.g. a
      malformed ["inst.port"] endpoint);
    - [BND001] {e error} — no or several [*_rtg.xml] in a bundle
      directory;
    - [BND002] {e warning} — a state's guard analysis was skipped
      because the status space exceeds the enumeration limit (raise it
      with [?guard_limit] / [fpgatest lint --guard-limit N]).

    Deep analysis ({!run_deep}): the {!Absint} abstract-interpretation
    engine runs a fixpoint over every configuration and emits proof
    results as AI0xx diagnostics:
    - [AI000] {e error} — the abstract interpreter itself failed on the
      configuration (invalid documents, no control path);
    - [AI001] {e error}/{e warning} — SRAM write address out of bounds
      (error when provably always out, warning when possibly out);
    - [AI002] {e warning} — SRAM read address provably out of bounds
      with the read data consumed;
    - [AI003] {e warning} — a register's reset-default value can reach
      an observable before any write (read-before-write);
    - [AI004] {e warning} — divisor not provably nonzero on a reachable
      path;
    - [AI005] {e warning} — a resize truncates a value whose abstract
      range exceeds the narrower width;
    - [AI006] {e error} — a mux-broken DP013 structural loop closes
      dynamically in a reachable FSM state (the base DP013 warning is
      upgraded in place);
    - [AI007] {e note} — a mux-broken DP013 structural loop proved
      dynamically acyclic in every reachable state of every
      configuration (the base DP013 warning is replaced by the proof). *)

val run_datapath : Netlist.Datapath.t -> Diag.t list
(** Structural diagnostics plus DP013–DP015. The deep passes only run
    when the document is structurally clean (they need resolvable
    operator specs). *)

val run_fsm : ?guard_limit:int -> Fsmkit.Fsm.t -> Diag.t list
(** Structural diagnostics plus FSM012–FSM014. Guard analyses enumerate
    the status space per state; states exceeding [guard_limit]
    (default {!guard_space_limit}) assignments are skipped with a
    [BND002] warning. *)

val run_rtg : Rtg.t -> Diag.t list

val guard_space_limit : int
(** Default assignment-count cap for the per-state guard analyses
    (1024). *)

val link_configuration :
  ?cfg_name:string -> Netlist.Datapath.t -> Fsmkit.Fsm.t -> Diag.t list
(** XL002–XL009 for one datapath/FSM pair. [cfg_name] names the RTG
    configuration in locations (defaults to the document names). *)

val run_configuration :
  ?guard_limit:int -> Netlist.Datapath.t -> Fsmkit.Fsm.t -> Diag.t list
(** Everything about one configuration: {!run_datapath}, {!run_fsm}
    (locations prefixed with the document names) and
    {!link_configuration}. *)

val run_bundle :
  ?guard_limit:int ->
  rtg:Rtg.t ->
  datapaths:(string * Netlist.Datapath.t) list ->
  fsms:(string * Fsmkit.Fsm.t) list ->
  unit ->
  Diag.t list
(** Lint a whole design: the RTG, every referenced document (each linted
    once even when configurations share it), every configuration's
    cross-links, and XL001 for references the assoc lists do not
    resolve. The assoc lists are keyed by document name, as in
    [Testinfra.Bundle]. *)

(** {1 Deep analysis} *)

type analysis = {
  cfg : string;  (** Configuration name. *)
  seconds : float;  (** Wall time of the abstract fixpoint. *)
  fixpoint_iterations : int;
}

type deep = {
  deep_diags : Diag.t list;
      (** The {!run_bundle} diagnostics with every mux-broken DP013
          warning resolved (upgraded to an [AI006] error or replaced by
          an [AI007] note), followed by the AI001–AI005 prover findings
          of every configuration. *)
  analyses : analysis list;  (** One entry per analyzed configuration. *)
}

val run_deep :
  ?guard_limit:int ->
  ?cache:Absint.cache ->
  ?mem_inits:(string * int list) list ->
  rtg:Rtg.t ->
  datapaths:(string * Netlist.Datapath.t) list ->
  fsms:(string * Fsmkit.Fsm.t) list ->
  unit ->
  deep
(** {!run_bundle} plus the {!Absint} engine over every configuration.
    When the base lint already reports errors the deep analysis is
    skipped (its preconditions do not hold) and the base diagnostics are
    returned unchanged. A DP013 warning is only discharged ([AI007])
    when every configuration sharing the datapath proves the loop
    acyclic; a single configuration closing it dynamically upgrades it
    to an [AI006] error.

    [mem_inits] declares initial memory contents by backing-memory name,
    with the {!Absint.analyze} contract: only list memories nothing
    outside the designs mutates (the compiler passes its read-only
    memories). [cache] is handed to every {!Absint.analyze} call, so a
    configuration analysed before through the same cache is not
    analysed again. Callers layering translation validation on top of this
    report (see [Compile.lint_deep]) append [TV001] (error, a pass
    refuted), [TV002] (warning, a validation bound exhausted) and
    [TV003] (note, a pass validated) diagnostics after these. *)

val run_file : ?guard_limit:int -> string -> Diag.t list
(** Lint one saved XML document (dialect chosen by the root tag). Load
    failures become XML001–XML003 diagnostics instead of exceptions. *)

val run_dir : ?guard_limit:int -> string -> Diag.t list
(** Lint a bundle directory ([*_rtg.xml] plus referenced documents, the
    [Testinfra.Bundle] layout) without requiring the documents to be
    valid: every load failure is captured as a diagnostic. *)

val run_deep_dir : ?guard_limit:int -> string -> deep
(** {!run_deep} over a bundle directory. On load failure the load
    diagnostics are returned with an empty [analyses] list. *)

(** {1 Mechanical fixes} *)

type fix = {
  fixed_paths : string list;  (** Corrected documents written to disk. *)
  removed_controls : (string * string list) list;
      (** Document name -> removed control/output names. *)
  before : Diag.t list;  (** Bundle diagnostics before the rewrite. *)
  after : Diag.t list;  (** Bundle diagnostics after the rewrite. *)
}

val fix_dir :
  ?guard_limit:int -> ?in_place:bool -> string -> (fix, Diag.t list) result
(** Remove the fixable diagnostics of a bundle directory: unused
    datapath controls (DP015) together with the FSM outputs driving
    them (including XL008 asserted-but-unconnected controls). A control
    is only removed when every document agrees — the FSM output must be
    droppable in every paired datapath and vice versa — so the rewrite
    can never introduce XL002/XL003 link errors. Corrected documents
    are written next to the originals as [<name>.fixed.xml], or
    overwrite them with [~in_place:true]. [Error diags] when the
    directory does not load as a bundle. *)

val prefix : string -> Diag.t list -> Diag.t list
(** Prepend ["<p> / "] to every location (replacing empty locations
    with [p]). *)

val has_errors : Diag.t list -> bool
