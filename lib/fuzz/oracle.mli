(** The four-way differential oracle.

    One program is executed under four independent semantics — the golden
    interpreter ({!Lang.Interp}), the event-driven simulator
    ({!Testinfra.Simulate}), the levelized {!Cyclesim} and the compiled
    {!Fastsim} — across four compilation variants (plain, [optimize],
    [share_operators], [fold_branches]), and every observable is diffed:
    completion, cycle counts, check/assert counts, final memory images
    and out-of-range access counters. Every compilation is additionally
    certified by translation validation ({!Tv}, via
    {!Compiler.Compile.certify}): a {!Tv.Refuted} certificate is a
    divergence of class [variant/tv/pass] — on an otherwise-convergent
    program that is a validator false alarm, which shrinks and lands in
    the corpus like any other disagreement.

    Expected, by-design disagreements are {e not} divergences:
    - Cyclesim refusing an operator-shared design
      ({!Cyclesim.Combinational_cycle}) — structural cycles are exactly
      its documented limitation;
    - Fastsim declining inadmissible designs ({!Fastsim.admissible});
    - OOB transient counts between event and cyclesim (levelized
      single-pass vs delta re-evaluation legitimately read different
      intermediate addresses), so OOB is excluded from that pair;
    - golden-vs-hardware data comparisons (memory images {e and} check
      counts) when the golden run itself went out of bounds: hardware
      truncates SRAM addresses to the physical width while software
      open-decode reads return 0, so loaded values and everything
      downstream of them may differ — those comparisons bind only when
      [golden_oob = 0];
    - cycle counts across compilation variants (schedules differ). *)

type backend = Event | Cycle | Fast

val backend_of_string : string -> backend option
val backend_to_string : backend -> string

val all_backends : backend list
(** [Event; Cycle; Fast]. The event-driven simulator is the hardware
    reference and always runs; [backends] selects the others. *)

type variant = { v_name : string; v_options : Compiler.Compile.options }

val variants : variant list
(** plain / optimize / share / fold / all (every knob at once). *)

type obs = {
  completed : bool;
  cycles : int;
  checks : int;
  oob : int;
  mems : (string * int list) list;
}

type outcome = Ran of obs | Refused of string

type divergence = {
  d_variant : string;  (** Compilation variant name. *)
  d_pair : string;  (** E.g. ["golden-vs-event"], ["event-vs-fastsim"]. *)
  d_field : string;  (** ["memories"], ["cycles"], ["checks"], ... *)
  d_detail : string;
}

type verdict =
  | Agree
  | Rejected of string
      (** Not a fuzzing candidate: static check / partition-flow
          violation, or the golden run exceeded [max_statements]. *)
  | Diverged of divergence list

val class_of : divergence -> string
(** ["variant/pair/field"] — the divergence classification used for
    corpus naming and shrink preservation. *)

val classes : verdict -> string list
(** Sorted, deduplicated classes; [[]] unless [Diverged]. *)

val primary_class : divergence list -> string
(** Lexicographically first class — the deterministic representative a
    shrink run preserves. *)

val run :
  ?backends:backend list ->
  ?max_cycles:int ->
  ?max_statements:int ->
  Lang.Ast.program ->
  verdict
(** Golden first (cheap, bounds runaway shrink candidates), then each
    compilation variant through the selected backends. Backend crashes
    and compile failures on check-clean programs are reported as
    divergences (class ".../crash"), never raised. *)
