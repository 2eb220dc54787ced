(** Levelized cycle-based simulation — the baseline the event-driven
    kernel is compared against in the engine ablation.

    Instead of an event queue and delta cycles, the combinational
    operators are topologically sorted once at elaboration; each clock
    cycle then evaluates every operator exactly once in that order,
    computes the controller's transition, and latches every sequential
    element two-phase. Semantics match {!Sim.Engine}-based simulation
    exactly (tests assert identical memory contents and cycle counts).

    Limitation: designs whose structure contains a combinational cycle —
    even one never active dynamically, as operator-sharing binding
    produces — are rejected with {!Combinational_cycle}; the event-driven
    kernel simulates those fine. Probe operators are inert here. *)

type t

exception Combinational_cycle of string

val create :
  ?corrupt:(string -> Operators.Faulty.perturbation option) ->
  memories:(string -> Operators.Memory.t) ->
  Netlist.Datapath.t ->
  Fsmkit.Fsm.t ->
  t
(** Validates both documents and their compatibility (same rules as
    {!Transform.Fsm_exec.attach}); raises {!Combinational_cycle},
    {!Netlist.Datapath.Invalid}, {!Fsmkit.Fsm.Invalid} or [Failure].

    [corrupt] is the fault-injection hook: for each operator output port
    (["inst.port"]) it may return a perturbation applied every time that
    cell commits — right after the unit evaluates for combinational
    operators, at the register-update phase for sequential ones — so the
    defect is observed exactly as {!Sim.Engine.corrupt_signal} applies it
    in the event-driven kernel. *)

val step : t -> unit
(** Execute one clock cycle. *)

val run : ?max_cycles:int -> t -> [ `Done | `Max_cycles | `Stopped ]
(** Step until the controller enters a done state ([`Done]), a [stop]
    operator fires or a [check] with [action="stop"] fails
    ([`Stopped], after the cycle it happened in, as in the event-driven
    kernel), or [max_cycles] (default 10 million) elapse. *)

val cycles : t -> int
val current_state : t -> string
val in_done_state : t -> bool

val port_value : t -> string -> Bitvec.t
(** Current value of an operator output port (["inst.port"]). *)

val check_failures : t -> int
(** Number of times [check] operators fired. *)
