(** The staged equivalence decision procedure.

    [decide a b] runs the pipeline the certificates are built on:

    + {b structural} — after hash-consed normalization, semantically
      equal cones frequently share a node; id equality proves them;
    + {b sampling} — the shared deterministic {!Sampler} worlds hunt a
      cheap counterexample before any solver work;
    + {b solver} — the disequality [a <> b] is bit-blasted (Tseitin
      gates, Ackermann congruence constraints for memory reads) and
      handed to the CDCL core; UNSAT proves equivalence, a model is a
      counterexample.

    Every refutation carries a concrete witness that has been replayed
    through both terms with the concrete evaluator — a solver model
    that fails replay is reported as {!Unknown}, never as a refutation,
    so a {!Refuted} verdict is trustworthy even against blaster
    defects. *)

type witness = {
  assignment : (string * Bitvec.t) list;
      (** Free-variable valuation, sorted by name. *)
  cells : ((string * int) * Bitvec.t) list;
      (** Memory contents at the addresses the terms read. *)
  left : Bitvec.t;  (** Value of the first term under the witness. *)
  right : Bitvec.t;  (** Value of the second term — differs. *)
  via : [ `Sample of int | `Solver ];
}

val witness_to_string : witness -> string
(** ["x=8'd3, m[2]=8'd5 -> 8'd1 vs 8'd0 (solver model)"]-style text. *)

type reason = {
  cause : string;  (** Which budget or defense gave up. *)
  conflicts : int;  (** Solver conflicts spent. *)
}

type outcome =
  | Proved of [ `Structural | `Solver ]
  | Refuted of witness
  | Unknown of reason

val decide : ?samples:int -> ?max_conflicts:int -> Term.t -> Term.t -> outcome
(** Decides [a = b] for terms of equal width (raises
    {!Bitvec.Width_error} on a width mismatch — two cones feeding the
    same architectural element can only differ in width through a
    malformed document). Defaults: 17 samples, 100_000 conflicts. *)
