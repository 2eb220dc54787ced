(** Port interfaces and parameters of the operator catalogue ({!Opkind}).

    An operator instance is characterized by its [kind], its data [width]
    and the document's string attributes (a constant's value, a mux's
    input count, an SRAM's backing-memory name, ...). {!lookup} resolves
    all three once: the port interface and the typed {!params} every
    consumer — the simulation models in {!Models}, the other simulators,
    the analyses and the HDL emitters — reads. Adding a parameter is one
    edit, here. *)

exception Spec_error of string

type direction = In | Out

type port = {
  port_name : string;
  direction : direction;
  port_width : int;  (** Resolved width for the given instance. *)
}

type action =
  | Record  (** ["record"] (the default): count the failure and go on. *)
  | Halt  (** ["stop"]: also stop the simulation. *)
(** What a failing [check] does. *)

type params = {
  value : int;  (** const: the constant; check: the expected value. *)
  from : int;  (** zext/sext: the input width. *)
  inputs : int;  (** mux: the input count (2 when absent). *)
  init : int option;
      (** reg: the reset value. [None] when absent, which the abstract
          interpreter reads as uninitialised, unlike an explicit 0; the
          simulators reset to 0. *)
  step : int;  (** counter: the increment (1 when absent). *)
  memory : string;  (** sram/rom: the backing memory's name. *)
  addr_width : int;  (** sram/rom: the address port's width. *)
  size : int;  (** sram/rom: the word count, [1 .. 2^addr_width]. *)
  action : action;  (** check *)
  reason : string option;  (** stop: the message when it fires. *)
}
(** An instance's parameters, parsed and checked once. A field means
    something only for the kinds it names; otherwise it holds its
    default. *)

type t = {
  kind : Opkind.t;
  params : params;
  ports : port list;
  sequential : bool;  (** True for clocked operators (reg, counter, sram). *)
}

type attrs = (string * string) list
(** A document's operator attributes other than id, kind and width. *)

val sel_width : int -> int
(** Select width for an [n]-input mux: bits needed to address [n - 1]
    (at least 1). *)

val lookup : kind:Opkind.t -> width:int -> attrs -> t
(** Resolve an instance. Raises {!Spec_error} for an invalid width or a
    missing or invalid parameter of the kind. Attributes the kind does
    not read are ignored. *)
