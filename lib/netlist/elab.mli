(** The elaborated netlist: a validated {!Datapath.t} resolved once.

    Every consumer that evaluates, analyses or emits a datapath works on
    this view instead of re-resolving the document's ["inst.port"]
    strings: operators carry their resolved {!Operators.Opspec.t} and
    {!Operators.Opkind.t}, and every input port its typed driver. The
    graph algorithms the consumers share — the levelizing sort and the
    strongly-connected-component search — live here too. *)

type op = private {
  id : int;  (** Document position, [0 .. n-1]. *)
  name : string;  (** The document's operator id. *)
  kind : Operators.Opkind.t;
  width : int;
  spec : Operators.Opspec.t;  (** Ports and typed parameters. *)
  mutable inputs : (Operators.Opspec.port * driver) list;
      (** One entry per input port, in the spec's port order. *)
  mutable fanout : (op * Operators.Opspec.port) list;
      (** The input ports this operator's outputs drive, in net then
          sink document order. *)
}

and driver =
  | Op_out of op * Operators.Opspec.port  (** an operator output port *)
  | Ctl of Datapath.control  (** a control signal *)

type t

val of_datapath : Datapath.t -> t
(** Validates and resolves. Raises {!Datapath.Invalid} exactly as
    {!Datapath.validate} does. *)

val datapath : t -> Datapath.t

val ops : t -> op list
(** Every operator, in document order ([id] [0, 1, ...]). *)

val find : t -> string -> op option
(** The operator with the given document id. *)

val driver : op -> string -> driver
(** The driver of the named input port. Raises [Invalid_argument] when
    the operator has no such input. *)

val endpoint : op -> Operators.Opspec.port -> string
(** The document spelling ["inst.port"] of one of the operator's ports. *)

val out_port : op -> Operators.Opspec.port
(** The operator's output port ([y], [q] or [dout]). Raises
    [Invalid_argument] for the test aids, which have none. *)

val comb : t -> op list
(** The operators evaluated in a cycle's combinational settle
    ({!Operators.Opkind.is_comb}), in document order. *)

val comb_preds : op -> op list
(** The combinational operators driving this operator's inputs, each
    once, in input-port order. *)

val consumers : op -> op list
(** The operators this one drives, each once, in [fanout] order. *)

(** {1 Graph algorithms} *)

val levelize : t -> deps:(op -> op list) -> op list * op list
(** Kahn's sort of {!comb} under [deps] (the predecessors each operator
    must follow; non-combinational entries are ignored, duplicates
    count once). Returns the ordered operators and the stuck ones — the
    members of dependency cycles, self-edges included, plus everything
    downstream of them — the latter in document order. *)

val sccs : succs:(op -> op list) -> op list -> op list list
(** Tarjan over the given nodes (in that order), following [succs],
    which must stay within the nodes. Returns the cyclic strongly
    connected components — more than one member, or a self-loop — in
    discovery order. *)

val cyclic_without_muxes : succs:(op -> op list) -> op list -> bool
(** Whether the subgraph of the given operators with every mux removed
    still contains a cycle under [succs]. *)
