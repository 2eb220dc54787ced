(** Imperative construction of {!Datapath.t} values.

    Used by the compiler back-end and by hand-written examples. Net widths
    are inferred from their source (operator output port or control
    signal), so callers only name endpoints. *)

type t

val create : string -> t
(** [create name] starts an empty datapath. *)

val fresh_id : t -> string -> string
(** [fresh_id b prefix] returns a not-yet-used operator/net id like
    ["add3"]. The id is reserved immediately. *)

val add_operator :
  t -> ?id:string -> kind:Operators.Opkind.t -> width:int ->
  ?params:Operators.Opspec.attrs -> unit -> string
(** Add an instance; returns its id (generated from the kind when [id] is
    omitted). Raises [Invalid_argument] on a duplicate explicit id. *)

val add_control : t -> string -> int -> unit
(** [add_control b name width] declares a control input. *)

val add_status : t -> name:string -> from:string -> unit
(** [add_status b ~name ~from] declares a status output tapping endpoint
    [from] ("inst.port"). *)

val connect : t -> ?net_id:string -> from:string -> string list -> unit
(** [connect b ~from sinks] adds a net from source ["inst.port"] or
    ["ctl.name"] to each sink ["inst.port"], inferring the width from the
    source. Raises [Invalid_argument] when the source is unknown. *)

val finish : t -> Datapath.t
(** Produce the datapath (in insertion order). Does not validate; call
    {!Datapath.validate} on the result. *)
