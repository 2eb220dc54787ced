(** Abstract-interpretation dataflow engine over the FSMD.

    The verifier's dynamic story — simulate, then diff memories — only
    catches defects the stimulus excites. This engine runs a fixpoint
    over the FSM state graph with an abstract value per datapath signal
    (a product of an unsigned interval, a known-bits mask and — as their
    meet — constants), evaluating the combinational network per state
    under the state's exact control settings and pruning transitions
    whose guards are abstractly unsatisfiable. Prover passes on top of
    the fixpoint discharge properties statically, before a single cycle
    is simulated:

    - [AI001] — SRAM {e write} address not provably in bounds
      ({e error} when the whole interval lies out of bounds — the store
      is out of range whenever it happens — {e warning} when only part
      of the interval escapes);
    - [AI002] {e warning} — SRAM {e read} address provably out of bounds
      in a reachable state while the read data is consumed (reads are
      architecturally forgiving — they return 0 — so only the definite
      case is reported);
    - [AI003] {e warning} — register read before first write: the
      reset-default value of a register with no explicit [init]
      parameter can reach an observable (memory write, check operator,
      or a status a guard branches on) before any state wrote it;
    - [AI004] {e warning} — division by zero reachable: a divisor of a
      divmod-class operator is not provably nonzero in a reachable
      state (the RISC-V-style convention makes the result defined, but
      the quotient all-ones is rarely what the design intends);
    - [AI005] {e warning} — truncation drops value bits: a narrowing
      [zext]/[sext] whose input's inferred range exceeds the output
      width. Only fires when the analysis derived some information
      about the input (a nontrivial bound or known bits) — an entirely
      unknown input would flag every intentional index truncation
      speculatively — {e and} the truncated value is live in the
      witnessing state, i.e. it can reach an enabled register update, a
      memory write, an armed check, a probe or an examined guard there
      (a loop counter that just stepped past its bound feeding the
      address of a read nothing consumes in the exit-test state is not
      reported);
    - [AI006] {e error} — confirmed dynamic combinational cycle: in a
      reachable state every mux select on a structurally cyclic path is
      resolved to a constant by the state's control settings and the
      selected routing still closes the loop (names the witnessing
      state);
    - [AI007] {e note} — the complementary proof: a structurally cyclic
      component (the DP013 warning class) is dynamically acyclic in
      every reachable state, so the warning is discharged.

    Soundness contract (checked by a qcheck oracle in the tests): for
    every reachable FSM state, the abstract interval of every register
    contains every value {!Cyclesim} observes for that register when the
    controller is in that state. *)

module Dom : sig
  (** The product domain: unsigned interval × known bits, over a fixed
      bit width. Constants are the meet of the two ([lo = hi], all bits
      known). [taint] carries the set of registers whose reset-default
      value may flow into the value (uninitialized-value propagation). *)

  type t = private {
    width : int;
    lo : int;  (** Unsigned minimum. *)
    hi : int;  (** Unsigned maximum. *)
    kmask : int;  (** Bit positions whose value is known. *)
    kval : int;  (** Values of the known bits ([kval land kmask = kval]). *)
    taint : string list;  (** Sorted register ids; see above. *)
  }

  val top : width:int -> t
  val const : width:int -> int -> t
  (** Truncates like {!Bitvec.create}. *)

  val with_taint : string list -> t -> t
  val is_const : t -> int option
  val contains : t -> int -> bool
  (** Interval and known-bits membership of an unsigned value. *)

  val join : t -> t -> t

  val widen : ?thresholds:int list -> prev:t -> next:t -> unit -> t
  (** Interval widening: a bound still moving after the join budget
      jumps outward to the nearest value in [thresholds] (a sorted list,
      e.g. the design's literal constants and memory sizes) when one
      exists, else to the domain bound. Known bits and taint join (both
      lattices are finite, so they need no widening). *)

  val equal : t -> t -> bool

  val meet_interval : t -> int -> int -> t option
  (** [meet_interval d lo hi] restricts [d] to the unsigned interval
      [lo, hi]; [None] when the intersection is empty. *)

  (** Three-valued truth of a 1-bit-style question. *)
  type tri = Yes | No | Maybe

  val truth : t -> tri
  (** Is the value nonzero? *)

  val binary : Operators.Opkind.binop -> t -> t -> t
  (** Transfer function of a binary ALU kind. Constant operands
      evaluate exactly through {!Operators.Opkind.bin_bitvec}, so the
      abstract semantics agree with both simulators by construction. *)

  val cmp : Operators.Opkind.cmpop -> t -> t -> t
  (** Transfer function of a comparison (a 1-bit result); constants
      fold through {!Operators.Opkind.cmp_bitvec}. *)

  val unary : Operators.Opkind.unop -> t -> t
end

type verdict =
  | Proved_acyclic
      (** In every reachable state the resolved mux routing breaks every
          cycle of the component. *)
  | Dynamic_cycle of { state : string; through : string list }
      (** A reachable state whose fully-resolved routing still closes a
          loop; [through] is the sorted cycle membership. *)
  | Unresolved of { state : string }
      (** Some select on the residual cycle is not a compile-time
          constant in [state]; the structural warning must stand. *)

type cycle_finding = { members : string list;  (** Sorted SCC. *) cycle_verdict : verdict }

type t

type cache
(** A memo of finished analyses. Looking an analysis up costs a digest of
    the marshalled inputs ([datapath], [fsm], [memories],
    [widen_after]), so a regenerated but content-equal design hits.
    Safe to share between domains. A cache lives as long as its owner
    (one per [Compile.t]); nothing is process-global. *)

val create_cache : unit -> cache

val analyze :
  ?cache:cache ->
  ?widen_after:int ->
  ?memories:(string * int list) list ->
  Netlist.Datapath.t ->
  Fsmkit.Fsm.t ->
  t
(** Runs the fixpoint. Both documents must be structurally clean and
    cross-linkable (the [Lint] gate runs the engine only then); raises
    [Failure] otherwise. [widen_after] (default 8) bounds the joins per
    state before intervals widen, guaranteeing termination.

    [memories] declares the initial contents of backing memories by name
    (shorter lists are zero-padded to the port's [size]). Reads from a
    memory the design itself never writes (a [rom], or an [sram] whose
    write enable is tied to a constant 0) then evaluate per-cell instead
    of to top, which discharges AI002 for in-range reads of initialized
    data. Callers must only declare memories whose contents nothing
    outside the design mutates either.

    Two further precision notes: signed comparisons sharpen whenever the
    operands' sign bits are statically known, and every explored FSM
    edge refines the flowing store with the interval facts its guard
    decision implies (the taken guard holds, every earlier examined
    guard failed), pushed backward from status endpoints through
    resolved muxes and one comparison level onto unwritten registers.
    Contradictory edges are infeasible and are dropped.

    With [cache], an input already analysed through the same cache
    returns the stored result (physically the same [t], its
    {!wall_seconds} and {!iterations} those of the original fixpoint);
    a miss runs the fixpoint and stores it. Failures are not stored. *)

val diagnostics : t -> Diag.t list
(** AI001–AI005, deterministic order (operators in document order, the
    first witnessing state in FSM document order). AI006/AI007 are
    derived from {!cycle_findings} by the [Lint] layer, which owns the
    DP013 warnings they replace. *)

val cycle_findings : t -> cycle_finding list
(** One per structurally cyclic combinational component that a mux
    could break (the DP013-warning class; components cyclic without
    muxes are certain oscillations and keep their error elsewhere). *)

val all_cycles_proved : t -> bool
(** True when the design has structurally cyclic components and every
    one carries a {!Proved_acyclic} verdict — the AI007 certificate the
    compiled fault-simulation backend requires before it levelizes a
    shared/mux-broken datapath. False when there are no findings (a
    globally acyclic design needs no proof) or any component is
    [Dynamic_cycle]/[Unresolved]. *)

val reachable_states : t -> string list
(** Abstractly reachable FSM states, document order. *)

val reg_interval : t -> state:string -> reg:string -> (int * int) option
(** Unsigned interval of a register/counter [q] output on entry to a
    reachable state — [None] when the state is unreachable or the id is
    not a sequential element. This is the soundness oracle's view. *)

val iterations : t -> int
(** State visits until the fixpoint stabilized (termination metric). *)

val wall_seconds : t -> float
(** Elapsed wall time of the analysis, on the monotonic clock. *)
