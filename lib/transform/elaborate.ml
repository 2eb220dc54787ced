module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Opspec = Operators.Opspec
module Models = Operators.Models
open Sim

type t = {
  engine : Engine.t;
  clock : Clock.t;
  datapath : Dp.t;
  controls : (string * Engine.signal) list;
  statuses : (string * Engine.signal) list;
  ports : (string * Engine.signal) list;
  notifications : Models_log.t;
}

let datapath ?engine ?clock ~memories dp =
  let elab = Elab.of_datapath dp in
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let clock =
    match clock with Some c -> c | None -> Clock.create engine ()
  in
  let notifications = Models_log.create () in
  (* One signal per operator output port, one per control input. *)
  let outputs =
    Array.of_list
      (List.map
         (fun (o : Elab.op) ->
           List.filter_map
             (fun (p : Opspec.port) ->
               if p.Opspec.direction = Opspec.Out then
                 let name = Elab.endpoint o p in
                 Some (p.Opspec.port_name, Engine.signal engine ~name p.Opspec.port_width)
               else None)
             o.Elab.spec.Opspec.ports)
         (Elab.ops elab))
  in
  let output (o : Elab.op) port = List.assoc port outputs.(o.Elab.id) in
  let controls =
    List.map
      (fun (c : Dp.control) ->
        ( c.Dp.ctl_name,
          Engine.signal engine ~name:("ctl." ^ c.Dp.ctl_name) c.Dp.ctl_width ))
      dp.Dp.controls
  in
  (* Instantiate the operator models; an input port reads its driver's
     signal. The models keep [find_signal], so it holds only this
     operator's signals, not the elaborated netlist. *)
  List.iter
    (fun (o : Elab.op) ->
      let signals =
        outputs.(o.Elab.id)
        @ List.map
            (fun ((p : Opspec.port), d) ->
              ( p.Opspec.port_name,
                match d with
                | Elab.Op_out (src, q) -> output src q.Opspec.port_name
                | Elab.Ctl c -> List.assoc c.Dp.ctl_name controls ))
            o.Elab.inputs
      in
      let env =
        {
          Models.engine;
          clock = Clock.signal clock;
          find_memory = memories;
          find_signal = (fun port -> List.assoc port signals);
          instance = o.Elab.name;
          notify = Models_log.record notifications;
        }
      in
      Models.instantiate env ~width:o.Elab.width o.Elab.spec)
    (Elab.ops elab);
  let statuses =
    List.map
      (fun (st : Dp.status) ->
        let ep = st.Dp.st_source in
        (st.Dp.st_name, output (Option.get (Elab.find elab ep.Dp.inst)) ep.Dp.port))
      dp.Dp.statuses
  in
  let ports =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (List.concat_map
         (List.map (fun (_, s) -> (Engine.name s, s)))
         (Array.to_list outputs))
  in
  { engine; clock; datapath = dp; controls; statuses; ports; notifications }

let control design name =
  match List.assoc_opt name design.controls with
  | Some s -> s
  | None ->
      failwith
        (Printf.sprintf "design %s: unknown control %S"
           design.datapath.Dp.dp_name name)

let status design name =
  match List.assoc_opt name design.statuses with
  | Some s -> s
  | None ->
      failwith
        (Printf.sprintf "design %s: unknown status %S"
           design.datapath.Dp.dp_name name)

let port_signal design name =
  match List.assoc_opt name design.ports with
  | Some s -> s
  | None ->
      failwith (Printf.sprintf "port_signal: unknown output port %S" name)
