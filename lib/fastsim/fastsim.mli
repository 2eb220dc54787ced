(** Compiled fault-parallel simulation backend.

    The event-driven kernel ({!Sim.Engine} + {!Transform.Elaborate}) is
    the semantic reference, but a mutation campaign runs the same design
    hundreds of times with one bit perturbed — almost all of that work is
    interpretation overhead. This backend compiles each configuration of
    a {!Compiler.Compile.t} once into a flat cell/operation array and
    then evaluates up to {!max_lanes} independent {e lanes} in lockstep:
    lane 0 carries the clean design, the other lanes carry one injected
    fault each, so a whole batch of mutants costs one sweep over the op
    array per clock edge and detection is a per-lane comparison against
    lane 0's verdict data.

    Fidelity contract: for every lane the observable results — completion,
    cycles executed, check-failure count, final memory images and the
    out-of-range access counters of the lane's memories — are exactly
    those of {!Testinfra.Simulate.run_compiled} with the same fault. To
    honour that, combinational settling is {e wave-accurate}: instead of
    a single topological pass, operations re-evaluate in document order
    whenever an input changed, mirroring the event engine's delta cycles.
    Transient SRAM address changes therefore perform the same transient
    [Memory.read]s (and count the same out-of-range accesses) as the
    event-driven run. The campaign layer double-checks the contract by
    validating lane 0 against the event-driven clean run and falls back
    to the interpreter on any divergence. *)

exception Unsupported of string
(** The design uses a construct this backend cannot compile. *)

val max_lanes : int
(** Bit-lanes per batch: 63, one per usable bit of an OCaml [int]. *)

val max_mutants_per_batch : int
(** [max_lanes - 1]: lane 0 is reserved for the clean design. *)

type t
(** A compiled plan: one levelized evaluator description per
    configuration of the source design, in RTG execution order. *)

val compile : Compiler.Compile.t -> t
(** Compile every partition. Every operator kind has a model; raises
    the dialect [Invalid] exceptions on structurally broken documents
    (as the simulators do). *)

val admissible : Compiler.Compile.t -> (unit, string) result
(** Whether [auto] backend selection may use the compiled path: every
    partition's combinational network is either globally acyclic
    ({!Netlist.Elab.levelize} leaves nothing stuck) or all its
    structural cycles carry an AI007 [Proved_acyclic] verdict
    from {!Absint}. Designs with [Dynamic_cycle] or [Unresolved]
    components keep the event-driven interpreter, whose delta-overflow
    diagnostics the campaign report format depends on. *)

type lane_spec = {
  memories : string -> Operators.Memory.t;
      (** The lane's private memory environment (fresh per lane). *)
  injections : (string option * string * (Bitvec.t -> Bitvec.t)) list;
      (** Port corruptions: configuration scope ([None] = every
          configuration), ["inst.port"] output port, transform — the
          {!Testinfra.Simulate.injection} triple. *)
  mutate_fsm : Fsmkit.Fsm.t -> Fsmkit.Fsm.t;
      (** Per-lane FSM mutation (transition retargeting). Must preserve
          the state/transition shape — only targets may change. *)
}

type lane_result = {
  completed : bool;  (** Every configuration reached a done state. *)
  total_cycles : int;  (** Clock edges executed, summed over configs. *)
  checks : int;  (** Check-operator failures observed. *)
  interrupted : bool;  (** The [check] callback ended the run early. *)
}

val clean_lane : (string -> Operators.Memory.t) -> lane_spec
(** A lane with no fault: the clean design over the given memories. *)

val run :
  ?max_cycles:int ->
  ?slice_cycles:int ->
  ?check:(unit -> bool) ->
  t ->
  lane_spec array ->
  lane_result array
(** Run every lane in lockstep through the RTG's configurations.
    [max_cycles] bounds each configuration (as in
    {!Testinfra.Simulate.run_configuration}); [check] is polled every
    [slice_cycles] clock edges and at each configuration entry — when it
    returns [true], still-running lanes stop with
    [interrupted = true] (the budget/cancellation hook). A lane whose
    configuration ends early stops there, mirroring the interpreter's
    early exit from the RTG walk. Raises {!Unsupported} when a lane's
    combinational network fails to settle within the wave bound (the
    event engine's delta overflow — callers fall back to the
    interpreter for the exact diagnostic). *)
