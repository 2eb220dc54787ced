(** End-to-end functional verification of a compiled design.

    The paper's scheme: run the input algorithm in software over the I/O
    data (golden model), simulate the generated architecture over an
    identical copy of the data, then compare memory contents. *)

type memory_result = {
  mem_name : string;
  matches : bool;
  mismatches : (int * int * int) list;
      (** [(address, golden, simulated)], address order, capped at
          {!max_reported_mismatches}. *)
  mismatch_count : int;  (** Uncapped. *)
}

val max_reported_mismatches : int

type t = {
  passed : bool;
  memories : memory_result list;  (** Every declared memory, in order. *)
  golden_vars : (string * Bitvec.t) list;
  golden_stats : Lang.Interp.stats;
  hw_run : Simulate.rtg_run;
  hw_check_failures : int;
      (** [check] operators that fired during simulation (compiled
          [assert] statements). *)
  compiled : Compiler.Compile.t;
  golden_seconds : float;
      (** Elapsed wall time of the golden software run, on the monotonic
          clock. *)
  golden_oob : int;
      (** Out-of-range memory accesses during the golden software run. *)
  hw_oob : int;
      (** Out-of-range memory accesses during hardware simulation. *)
  oob_failed : bool;
      (** True when OOB accesses occurred and the policy was to fail. *)
}

val run :
  ?options:Compiler.Compile.options ->
  ?clock_period:int ->
  ?max_cycles:int ->
  ?fail_on_oob:bool ->
  ?budget:Budget.t ->
  inits:(string * int list) list ->
  Lang.Ast.program ->
  t
(** Compile the program, set up two identical memory environments from
    [inits] (memories absent from [inits] start zeroed), run golden model
    and hardware simulation, and compare every declared memory.
    [passed] additionally requires that every configuration completed and
    that the hardware fired exactly as many assertion checks as the golden
    model counted violations.

    Out-of-range accesses (the memories' open-decode diagnostic counters)
    are always surfaced in [golden_oob]/[hw_oob]. A nonzero [golden_oob]
    always fails: the software run touched an address outside a declared
    memory, which is a program bug regardless of whether the stray access
    changed the compared memories. [hw_oob] also counts open-decode
    transients (an async read port briefly presenting an intermediate
    address while the datapath settles), so it is a warning by default
    and only fails the verification with [~fail_on_oob:true].

    [budget] is threaded to {!Simulate.run_compiled}: the hardware
    simulation then runs in watchdog slices, so a verification of a
    non-terminating design can be bounded by wall clock or cancelled
    cooperatively ([hw_run.budget_failure] records which). *)

val run_source :
  ?options:Compiler.Compile.options ->
  ?clock_period:int ->
  ?max_cycles:int ->
  ?fail_on_oob:bool ->
  ?budget:Budget.t ->
  inits:(string * int list) list ->
  string ->
  t
(** Parse the program text first. *)

val memory_env :
  Lang.Ast.program -> inits:(string * int list) list ->
  (string -> Operators.Memory.t) * (string * Operators.Memory.t) list
(** Build a fresh memory environment for a program: the lookup function
    and the backing list (declaration order). *)
