(** Hash-consed, normalizing word-level terms.

    The intermediate form of the equivalence engine: symbolic cones and
    source expressions are rebuilt through the smart constructors here,
    which normalize on the way in — constant folding at the operand
    width, flattening and sorting of associative/commutative operators,
    identity/annihilator elision, [x - y] as [x + (-y)], shift-by-
    constant canonicalized to multiplication, bounded mux pushdown —
    and hash-cons the result, so semantically equal cones frequently
    collapse to the {e same} node and equivalence is decided by a
    pointer comparison before any SAT call.

    Construction counts fresh nodes against an optional budget
    ({!set_node_limit}), the engine's analogue of Tv's cone budget. *)

type op =
  | Add  (** n-ary, AC; subtraction is [Add [a; Neg b]] *)
  | Mul  (** n-ary, AC; [Shl x k] with constant [k] canonicalizes here *)
  | And
  | Or
  | Xor  (** n-ary, AC *)
  | Neg
  | Not
  | Abs
  | Divu
  | Divs
  | Remu
  | Rems
  | Shl
  | Shrl
  | Shra
  | Minu
  | Maxu
  | Mins
  | Maxs
  | Eq
  | Ne
  | Ltu
  | Leu
  | Gtu
  | Geu
  | Lts
  | Les
  | Gts
  | Ges  (** comparisons yield 1-bit terms *)
  | Mux  (** [sel :: inputs], index clamped to the last input *)
  | Zext
  | Sext  (** resize to the node's width *)

type t = private { id : int; width : int; node : node }

and node = private
  | Const of int  (** unsigned payload, truncated to the width *)
  | Var of string
  | Read of string * t  (** memory name, address term *)
  | App of op * t list

exception Node_limit of int
(** Raised by the constructors when the fresh-node budget is exhausted;
    carries the node count. *)

val set_node_limit : int option -> unit
(** Bounds the number of fresh hash-consed nodes created from now on
    ([None] removes the bound and is the initial state). *)

val fresh_nodes : unit -> int
(** Fresh nodes created since {!set_node_limit} was last called. *)

val const : width:int -> int -> t
val var : width:int -> string -> t
val read : width:int -> string -> t -> t
val app : op -> width:int -> t list -> t

val op_of_kind : Operators.Opkind.t -> op option
(** The term operator of a catalogue kind. [None] for [pass] (identity),
    [sub] (rewritten as [Add [a; Neg b]]) and the non-functional kinds. *)

val equal : t -> t -> bool
(** Pointer/id equality — valid because construction hash-conses. *)

val vars : t -> (string * int) list
(** Free variables with widths, each listed once, sorted by name. *)

val reads : t -> (string * t * int) list
(** Distinct read sites (memory name, address term, read width). *)

type env = {
  lookup : string -> width:int -> Bitvec.t;  (** free variable values *)
  fetch : string -> addr:Bitvec.t -> width:int -> Bitvec.t;
      (** memory contents *)
}

val sample_env : int -> env
(** The deterministic sampling world [k], built on {!Sampler}. *)

val eval : env -> t -> Bitvec.t
(** Concrete evaluation through the operator catalogue's reference
    semantics ({!Operators.Opkind}), the same functions the simulators
    run, so agreeing terms agree with both simulators too. *)

val to_string : t -> string
(** Debug/diagnostic rendering. *)

(** {1 Stage timing} *)

module Stats : sig
  type t = {
    mutable normalize_s : float;
        (** Time spent rebuilding cones through the constructors. *)
    mutable blast_s : float;  (** Time spent bit-blasting to CNF. *)
    mutable solve_s : float;  (** Time spent inside the SAT solver. *)
    mutable sat_calls : int;
    mutable conflicts : int;
  }

  val reset : unit -> unit
  val get : unit -> t
  (** A snapshot (mutating it does not affect the accumulator). *)

  val time : [ `Normalize | `Blast | `Solve ] -> (unit -> 'a) -> 'a
  (** Runs the thunk, accumulating its {!Sys.time} delta. *)

  val count_sat : conflicts:int -> unit
  (** Records one solver call and its conflicts. *)
end
