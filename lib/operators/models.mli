(** Simulation behaviors of the operator library.

    [instantiate] builds the behavioral model of one datapath operator
    inside a simulation engine, wiring its ports to the signals supplied
    by the elaborator. This is the OCaml analog of the Hades Java operator
    models the paper plugs into its simulations. *)

type notification =
  | Check_failed of {
      instance : string;
      time : int;
      got : Bitvec.t;
      expect : Bitvec.t;
    }
      (** A [check] operator sampled (on a rising clock edge, while
          enabled) a value other than its expectation. *)
  | Probe_sample of { instance : string; time : int; value : Bitvec.t }
      (** A [probe] operator observed a value change. *)

type env = {
  engine : Sim.Engine.t;
  clock : Sim.Engine.signal;  (** Common clock for sequential operators. *)
  find_memory : string -> Memory.t;
      (** Resolve an SRAM/ROM backing store by name; raising is fine. *)
  find_signal : string -> Sim.Engine.signal;
      (** Resolve a port name (from {!Opspec.lookup}) to its net signal. *)
  instance : string;  (** Instance id, used in names and notifications. *)
  notify : notification -> unit;
}

val instantiate : env -> width:int -> Opspec.t -> unit
(** [instantiate env ~width spec] builds the model of a resolved instance
    of data width [width]. Raises [Invalid_argument] if a supplied signal
    width disagrees with the port spec. *)
