module Opspec = Operators.Opspec

type t = {
  name : string;
  mutable operators : Datapath.operator list;  (* reversed *)
  mutable controls : Datapath.control list;  (* reversed *)
  mutable statuses : Datapath.status list;  (* reversed *)
  mutable nets : Datapath.net list;  (* reversed *)
  used_ids : (string, unit) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let create name =
  {
    name;
    operators = [];
    controls = [];
    statuses = [];
    nets = [];
    used_ids = Hashtbl.create 64;
    counters = Hashtbl.create 16;
  }

let rec fresh_id b prefix =
  let n = Option.value ~default:0 (Hashtbl.find_opt b.counters prefix) in
  Hashtbl.replace b.counters prefix (n + 1);
  let id = Printf.sprintf "%s%d" prefix n in
  if Hashtbl.mem b.used_ids id then fresh_id b prefix
  else begin
    Hashtbl.replace b.used_ids id ();
    id
  end

let add_operator b ?id ~kind ~width ?(params = []) () =
  let id =
    match id with
    | Some id ->
        if Hashtbl.mem b.used_ids id then
          invalid_arg (Printf.sprintf "Dpbuilder: duplicate id %S" id);
        Hashtbl.replace b.used_ids id ();
        id
    | None -> fresh_id b (Operators.Opkind.to_string kind)
  in
  b.operators <- { Datapath.id; kind; width; params } :: b.operators;
  id

let add_control b name width =
  b.controls <- { Datapath.ctl_name = name; ctl_width = width } :: b.controls

let add_status b ~name ~from =
  b.statuses <-
    { Datapath.st_name = name; st_source = Datapath.endpoint_of_string from }
    :: b.statuses

let source_width b source =
  match source with
  | Datapath.From_control name -> (
      match List.find_opt (fun c -> c.Datapath.ctl_name = name) b.controls with
      | Some c -> c.Datapath.ctl_width
      | None -> invalid_arg (Printf.sprintf "Dpbuilder: unknown control %S" name))
  | Datapath.From_op ep -> (
      match
        List.find_opt (fun op -> op.Datapath.id = ep.Datapath.inst) b.operators
      with
      | None ->
          invalid_arg
            (Printf.sprintf "Dpbuilder: unknown instance %S" ep.Datapath.inst)
      | Some op -> (
          let spec = Datapath.operator_spec op in
          match
            List.find_opt
              (fun p -> p.Opspec.port_name = ep.Datapath.port)
              spec.Opspec.ports
          with
          | Some p -> p.Opspec.port_width
          | None ->
              invalid_arg
                (Printf.sprintf "Dpbuilder: no port %S on %S" ep.Datapath.port
                   ep.Datapath.inst)))

let connect b ?net_id ~from sinks =
  let source =
    let ep = Datapath.endpoint_of_string from in
    if ep.Datapath.inst = "ctl" then Datapath.From_control ep.Datapath.port
    else Datapath.From_op ep
  in
  let width = source_width b source in
  let net_id = match net_id with Some id -> id | None -> fresh_id b "n" in
  b.nets <-
    {
      Datapath.net_id;
      net_width = width;
      source;
      sinks = List.map Datapath.endpoint_of_string sinks;
    }
    :: b.nets

let finish b =
  {
    Datapath.dp_name = b.name;
    operators = List.rev b.operators;
    controls = List.rev b.controls;
    statuses = List.rev b.statuses;
    nets = List.rev b.nets;
  }
