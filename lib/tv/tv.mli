(** Translation validation: per-pass equivalence certificates.

    The dynamic infrastructure tests compiler-generated designs by
    simulating them; this module certifies each {e transforming pass} of
    one compilation instead, by checking the pass's output equivalent to
    its input and recording a machine-checkable verdict:

    - the {!Optimize_pass} (source-level rewriting) is validated by
      constructing a simulation relation between the pre- and post-pass
      control-flow graphs: a backtracking search matches the observable
      events (variable assignments, memory reads/writes, runtime checks)
      position by position, absorbing the pass's documented rewrites —
      algebraically equal expressions, dropped memory reads whose value
      became irrelevant, and branches folded on constant conditions;
    - the {!Share_pass} (operator binding) is validated by lockstep
      cycle-by-cycle comparison of the FSMD product: both machines keep
      the same FSM schedule, so in every state the symbolic cone feeding
      every architectural effect (register writes, memory traffic,
      checks, probes, examined guards) must be equivalent — pooled
      functional units and their selection muxes erase to the same
      expression the dedicated units compute;
    - the {!Fold_pass} (branch folding) is validated by a stuttering
      simulation with an explicit state-map witness: every folded state
      must perform its unfolded counterpart's effects and decide the
      merged test exactly as the eliminated branch state would have
      {e after} the counterpart's register updates (substituted
      symbolically), and every eliminated state must be effect-free;
    - on top of either hardware check, {e invariant preservation}: every
      {!Absint} fact class provable on the input design must still be
      provable on the output. A warning class appearing only on the
      output is {!Inconclusive}, not {!Refuted}: the interpreter
      answers in may-warnings, and a pass may legitimately push a
      design outside the abstraction's precision (pooled selection
      muxes widen address cones), so a lost proof undecides
      equivalence without witnessing a disagreement.

    Semantic comparison is staged through {!Ec.decide}: structural
    equality on hash-consed normalized terms first, then deterministic
    FNV sampling as a cheap counterexample hunt, then a bit-blasted SAT
    query that settles the equivalence for {e every} input. A
    disagreement is reported as {!Refuted} with a concrete replayed
    witness; an exhausted search, node or conflict budget turns into
    {!Inconclusive} — a resource verdict naming the offending pass,
    state and budget, not a failure. *)

(** The three transforming stages of {!Compile.compile}. *)
type pass = Optimize_pass | Share_pass | Fold_pass

val pass_name : pass -> string
(** ["optimize"], ["share"], ["fold"]. *)

type cert =
  | Proved
      (** Equivalence established for every input: each semantic
          comparison was settled structurally or by an unsatisfiable
          SAT query. *)
  | Refuted of { witness : string }
      (** A concrete disagreement: the witnessing position/state,
          element and a replayed assignment with both values. *)
  | Inconclusive of { bound : string }
      (** A search, node or conflict budget was exhausted before a
          verdict; names the exceeded bound, the offending pass/state
          and the work done. *)

type report = {
  partition : string;  (** Configuration name the certificate covers. *)
  pass : pass;
  cert : cert;
  seconds : float;  (** Validator wall time (monotonic clock). *)
}

val to_diag : report -> Diag.t
(** [TV001] error for {!Refuted}, [TV002] warning for {!Inconclusive},
    [TV003] note for {!Proved}. *)

type bounds = {
  max_pairs : int;
      (** Simulation-relation position pairs explored before the source
          search gives up. *)
  max_nodes : int;
      (** Symbolic cone/term nodes built per validation before the
          check gives up. *)
  samples : int;
      (** Concrete samples per semantic comparison, the counterexample
          pre-filter run before the SAT query. *)
  max_conflicts : int;
      (** SAT conflicts per query before it returns {!Inconclusive}. *)
}

val default_bounds : bounds

(** {1 Source graphs}

    A mirror of the compiler's lowered CFG, kept here so [tv] can sit
    below [compiler] in the library stack; {!Compile} converts its CFG
    into this shape. Expressions and conditions must be pure (memory
    reads hoisted into {!Eload}s, as lowering guarantees). *)

type event =
  | Eassign of string * Lang.Ast.expr  (** [v := pure e] *)
  | Eload of string * string * Lang.Ast.expr  (** [v := m\[addr\]] *)
  | Estore of string * Lang.Ast.expr * Lang.Ast.expr
      (** [m\[addr\] := value] *)
  | Echeck of Lang.Ast.cond  (** Runtime assertion. *)

type term =
  | Tjump of int
  | Tbranch of Lang.Ast.cond * int * int  (** then-, else-target. *)
  | Thalt

type block = { events : event list; term : term }
type graph = { blocks : block array; entry : int }

val validate_source :
  ?bounds:bounds ->
  width:int ->
  pre:graph ->
  post:graph ->
  unit ->
  cert
(** Simulation-relation search from both entries. Matched positions are
    assumed coinductively (loops close the relation); lowering
    temporaries are matched by a growing renaming, and a temporary
    whose load the pass deleted is treated as an unconstrained value —
    sound because its value can no longer reach any observable. Every
    expression equality the relation relies on is discharged by
    {!Ec.decide}, and a successful search yields {!Proved}. *)

val validate_hardware :
  ?bounds:bounds ->
  ?cache:Absint.cache ->
  ?memories:(string * int list) list ->
  pass:pass ->
  reference:Netlist.Datapath.t * Fsmkit.Fsm.t ->
  candidate:Netlist.Datapath.t * Fsmkit.Fsm.t ->
  unit ->
  cert
(** [pass] must be {!Share_pass} (lockstep product) or {!Fold_pass}
    (stuttering product with state-map witness); raises
    [Invalid_argument] on {!Optimize_pass}. [memories] declares initial
    contents for the {!Absint} invariant-preservation query, with the
    same contract as {!Absint.analyze}; [cache] is handed to both of its
    {!Absint.analyze} calls. Both documents must pass their
    dialect validation; an invalid datapath raises
    {!Netlist.Datapath.Invalid}. *)
