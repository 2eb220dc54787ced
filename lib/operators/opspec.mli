(** Port interfaces of the operator catalogue ({!Opkind}).

    Pure metadata: the datapath dialect is validated against it and the
    HDL emitters consult it; the simulation models in {!Models} implement
    it. An operator instance is characterized by its [kind], its data
    [width], and string [params] (e.g. a constant's value, a mux's input
    count, an SRAM's backing-memory name). *)

exception Spec_error of string

type direction = In | Out

type port = {
  port_name : string;
  direction : direction;
  port_width : int;  (** Resolved width for the given instance. *)
}

type t = {
  kind : Opkind.t;  (** Resolved once, here. *)
  ports : port list;
  sequential : bool;  (** True for clocked operators (reg, counter, sram). *)
}

type params = (string * string) list

val failf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Spec_error} with a formatted message. *)

(** Typed parameter accessors (raise {!Spec_error} on bad values). *)

val param_opt : params -> string -> string option
val param_int_opt : params -> string -> int option
val param_int : params -> string -> default:int -> int
val param_string : params -> string -> default:string -> string
val require_int : params -> kind:string -> string -> int
val require_string : params -> kind:string -> string -> string

val sel_width : int -> int
(** Select width for an [n]-input mux: bits needed to address [n - 1]
    (at least 1). *)

val lookup : kind:string -> width:int -> params:params -> t
(** Port interface of an instance. Raises {!Spec_error} for unknown kinds,
    invalid widths, or missing/invalid parameters. *)

val is_known : string -> bool
val all_kinds : string list
(** Every supported kind, sorted. *)
