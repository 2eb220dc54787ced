(** Functional simulation of compiled designs.

    One configuration = one elaborated datapath plus its FSM controller,
    clocked until the controller reaches a done state. A multi-
    configuration implementation is driven through its RTG: configurations
    run in sequence on fresh engines while the backing memories persist —
    the paper's model of temporal partitioning. *)

type injection = {
  inj_cfg : string option;
      (** Restrict the fault to one configuration; [None] = wherever the
          port exists. *)
  inj_port : string;  (** Operator output port, ["inst.port"]. *)
  inj_transform : Bitvec.t -> Bitvec.t;
      (** Applied to every value committed on the signal (see
          {!Sim.Engine.corrupt_signal}). *)
}
(** A port-level fault to inject into the simulated design. *)

type config_run = {
  cfg_name : string;
  stop : Sim.Engine.stop_reason;
  completed : bool;  (** The FSM reached a done state. *)
  cycles : int;  (** Clock cycles consumed. *)
  sim_stats : Sim.Engine.stats;
  final_state : string;
  wall_seconds : float;  (** Wall time (monotonic clock) for this configuration. *)
  notifications : Operators.Models.notification list;
  budget_failure : Budget.failure option;
      (** [Some Timeout_wall] when the watchdog deadline ended the run,
          [Some Cancelled] when a cancellation token did; [None] for
          every other ending (including ordinary cycle exhaustion, which
          [stop]/[completed] already describe). *)
}

type rtg_run = {
  runs : config_run list;  (** In execution order. *)
  all_completed : bool;
  total_cycles : int;
  total_wall_seconds : float;
  budget_failure : Budget.failure option;
      (** The first configuration's budget verdict, if any fired. *)
}

val run_configuration :
  ?clock_period:int ->
  ?max_cycles:int ->
  ?vcd_path:string ->
  ?name:string ->
  ?injections:injection list ->
  ?budget:Budget.t ->
  memories:(string -> Operators.Memory.t) ->
  Netlist.Datapath.t ->
  Fsmkit.Fsm.t ->
  config_run
(** Simulate until the FSM enters a done state or [max_cycles] (default
    10 million) elapse. [vcd_path] dumps controls, statuses, FSM state and
    every operator output port. [injections] corrupt the named output-port
    signals for the whole run; entries whose configuration or port does
    not match this design are ignored here (use {!run_rtg} for up-front
    validation).

    [budget] arms the watchdog: the engine then runs in slices of
    [Budget.slice_cycles] clock cycles and consults {!Budget.check}
    between slices, so a hung design dies within its wall-clock deadline
    (or at the next slice boundary after a cancellation) instead of
    simulating out a huge cycle budget. Without a budget the engine runs
    in one shot, exactly as before. *)

val run_rtg :
  ?clock_period:int ->
  ?max_cycles:int ->
  ?injections:injection list ->
  ?budget:Budget.t ->
  memories:(string -> Operators.Memory.t) ->
  datapaths:(string * Netlist.Datapath.t) list ->
  fsms:(string * Fsmkit.Fsm.t) list ->
  Rtg.t ->
  rtg_run
(** Execute the configurations named by the RTG in order (validating it
    first); stops early if a configuration fails to complete. The
    [budget] spans the whole sequence (its deadline is absolute). Raises
    [Failure] on unresolved datapath/FSM references and
    [Invalid_argument] when an injection names a port that exists in no
    datapath (a fault that would silently test nothing). *)

val run_compiled :
  ?clock_period:int ->
  ?max_cycles:int ->
  ?injections:injection list ->
  ?mutate_fsm:(Fsmkit.Fsm.t -> Fsmkit.Fsm.t) ->
  ?budget:Budget.t ->
  memories:(string -> Operators.Memory.t) ->
  Compiler.Compile.t ->
  rtg_run
(** Convenience: {!run_rtg} over a compilation result. [mutate_fsm] lets
    a fault campaign substitute a corrupted controller (applied to every
    partition's FSM; return the input unchanged for the others). *)
