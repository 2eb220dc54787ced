(** The closed operator catalogue and its one semantics table.

    Every operator kind a datapath may instantiate is a constructor of
    {!t}; the netlist dialect spells them as strings, resolved once per
    operator instance with {!of_string}. The functional kinds (binary
    ALU operations, comparisons, unary operations) carry their meaning
    here, in two paths that must agree bit for bit:

    - the {e reference} path ([*_bitvec]), built on {!Bitvec} primitives,
      used by the event and cycle simulators, abstract-interpretation
      constant folding and the equivalence engine;
    - the {e fast} path ([*_int ~width]), over unsigned OCaml ints already
      masked to [width], used by the compiled bit-parallel backend.

    Both inherit {!Bitvec}'s conventions: [x / 0] is all-ones, [x mod 0]
    is [x], shifts by [>= width] saturate (to 0, or to the sign fill for
    [shra]). The golden model ([Lang.Interp]) deliberately keeps its own
    mapping from source operators to {!Bitvec}, so it stays an
    independent oracle for the hardware path. *)

type binop =
  | Add | Sub | Mul | Divu | Divs | Remu | Rems | And | Or | Xor
  | Shl | Shrl | Shra | Minu | Maxu | Mins | Maxs

type cmpop = Eq | Ne | Ltu | Leu | Gtu | Geu | Lts | Les | Gts | Ges
type unop = Not | Neg | Pass | Abs

type t =
  | Bin of binop  (** ports a, b -> y at the data width *)
  | Cmp of cmpop  (** ports a, b -> y, one bit wide *)
  | Un of unop  (** ports a -> y at the data width *)
  | Const
  | Zext
  | Sext
  | Mux
  | Reg
  | Counter
  | Sram
  | Rom
  | Probe
  | Check
  | Stop

val all : t list
(** The whole catalogue: binary, comparison, unary, then the structural
    kinds. *)

val to_string : t -> string
(** The dialect spelling (["add"], ["ltu"], ["sram"], ...). *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] for unknown kinds. *)

val is_comb : t -> bool
(** Evaluated in a cycle's combinational settle (the sram read port
    included); false for reg, counter and the test aids. *)

val is_test_aid : t -> bool
(** The verification aids (probe, check, stop): they observe a design
    rather than compute with it. *)

(** {1 Reference semantics} *)

val bin_bitvec : binop -> Bitvec.t -> Bitvec.t -> Bitvec.t
val cmp_bitvec : cmpop -> Bitvec.t -> Bitvec.t -> Bitvec.t
(** A one-bit result. *)

val un_bitvec : unop -> Bitvec.t -> Bitvec.t

(** {1 Masked-int fast path}

    Operands are unsigned ints already masked to [width]; every result
    is masked too. Partially apply to [~width] and the kind once per
    operator: the returned closure is the hot-loop evaluator. *)

val mask : int -> int
(** All-ones payload of a width ([max_int] at {!Bitvec.max_width}). *)

val to_signed : int -> int -> int
(** [to_signed w v] is the two's-complement value of the [w]-bit
    payload [v]. *)

val bin_int : width:int -> binop -> int -> int -> int
val cmp_int : width:int -> cmpop -> int -> int -> int
val un_int : width:int -> unop -> int -> int
