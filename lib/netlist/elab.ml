module Opspec = Operators.Opspec
module Opkind = Operators.Opkind

type op = {
  id : int;
  name : string;
  kind : Opkind.t;
  width : int;
  spec : Opspec.t;
  mutable inputs : (Opspec.port * driver) list;
  mutable fanout : (op * Opspec.port) list;
}

and driver = Op_out of op * Opspec.port | Ctl of Datapath.control

type t = {
  dp : Datapath.t;
  ops : op list;
  by_name : (string, op) Hashtbl.t;
  comb : op list;
}

let port_named (o : op) name =
  List.find (fun (p : Opspec.port) -> p.Opspec.port_name = name) o.spec.Opspec.ports

let of_datapath (dp : Datapath.t) =
  Datapath.validate dp;
  let ops =
    Array.of_list
      (List.mapi
         (fun id (o : Datapath.operator) ->
           let spec = Datapath.operator_spec o in
           {
             id;
             name = o.Datapath.id;
             kind = spec.Opspec.kind;
             width = o.Datapath.width;
             spec;
             inputs = [];
             fanout = [];
           })
         dp.Datapath.operators)
  in
  let by_name = Hashtbl.create (Array.length ops) in
  Array.iter (fun o -> Hashtbl.replace by_name o.name o) ops;
  let controls = Hashtbl.create 16 in
  List.iter
    (fun (c : Datapath.control) -> Hashtbl.replace controls c.Datapath.ctl_name c)
    dp.Datapath.controls;
  (* Validation guarantees every endpoint resolves and every input port
     is the sink of exactly one net. *)
  let drivers = Array.make (Array.length ops) [] in
  let fanout = Array.make (Array.length ops) [] in
  List.iter
    (fun (n : Datapath.net) ->
      let src =
        match n.Datapath.source with
        | Datapath.From_op ep ->
            let o = Hashtbl.find by_name ep.Datapath.inst in
            Op_out (o, port_named o ep.Datapath.port)
        | Datapath.From_control name -> Ctl (Hashtbl.find controls name)
      in
      List.iter
        (fun (ep : Datapath.endpoint) ->
          let o = Hashtbl.find by_name ep.Datapath.inst in
          drivers.(o.id) <- (ep.Datapath.port, src) :: drivers.(o.id);
          match src with
          | Op_out (s, _) ->
              fanout.(s.id) <- (o, port_named o ep.Datapath.port) :: fanout.(s.id)
          | Ctl _ -> ())
        n.Datapath.sinks)
    dp.Datapath.nets;
  Array.iter
    (fun o ->
      o.inputs <-
        List.filter_map
          (fun (p : Opspec.port) ->
            if p.Opspec.direction = Opspec.In then
              Some (p, List.assoc p.Opspec.port_name drivers.(o.id))
            else None)
          o.spec.Opspec.ports;
      o.fanout <- List.rev fanout.(o.id))
    ops;
  let ops = Array.to_list ops in
  { dp; ops; by_name; comb = List.filter (fun o -> Opkind.is_comb o.kind) ops }

let datapath t = t.dp
let ops t = t.ops
let find t name = Hashtbl.find_opt t.by_name name
let comb t = t.comb

let driver o port =
  match
    List.find_opt (fun ((p : Opspec.port), _) -> p.Opspec.port_name = port) o.inputs
  with
  | Some (_, d) -> d
  | None -> invalid_arg (Printf.sprintf "Elab.driver: %s has no input %S" o.name port)

let endpoint o (p : Opspec.port) = o.name ^ "." ^ p.Opspec.port_name

let out_port o =
  match
    List.find_opt
      (fun (p : Opspec.port) -> p.Opspec.direction = Opspec.Out)
      o.spec.Opspec.ports
  with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Elab.out_port: %s has no output" o.name)

(* First occurrences, in order. *)
let uniq ops =
  List.rev
    (List.fold_left (fun acc o -> if List.memq o acc then acc else o :: acc) [] ops)

let comb_preds o =
  uniq
    (List.filter_map
       (fun (_, d) ->
         match d with
         | Op_out (s, _) when Opkind.is_comb s.kind -> Some s
         | Op_out _ | Ctl _ -> None)
       o.inputs)

let consumers o = uniq (List.map fst o.fanout)

(* ------------------------------------------------------------------ *)
(* Graph algorithms                                                    *)

let levelize t ~deps =
  let n = List.length t.ops in
  let indeg = Array.make n 0 and succs = Array.make n [] in
  List.iter
    (fun o ->
      List.iter
        (fun d ->
          if Opkind.is_comb d.kind then begin
            succs.(d.id) <- o :: succs.(d.id);
            indeg.(o.id) <- indeg.(o.id) + 1
          end)
        (uniq (deps o)))
    t.comb;
  (* Ready operators form a stack seeded in document order. *)
  let ready = ref (List.filter (fun o -> indeg.(o.id) = 0) t.comb) in
  let order = ref [] in
  let placed = Array.make n false in
  while !ready <> [] do
    match !ready with
    | [] -> ()
    | o :: rest ->
        ready := rest;
        order := o :: !order;
        placed.(o.id) <- true;
        List.iter
          (fun s ->
            indeg.(s.id) <- indeg.(s.id) - 1;
            if indeg.(s.id) = 0 then ready := s :: !ready)
          succs.(o.id)
  done;
  (List.rev !order, List.filter (fun o -> not placed.(o.id)) t.comb)

let sccs ~succs nodes =
  let n = List.fold_left (fun m o -> max m (o.id + 1)) 0 nodes in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and found = ref [] in
  let rec strongconnect v =
    index.(v.id) <- !counter;
    lowlink.(v.id) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v.id) <- true;
    let next = succs v in
    List.iter
      (fun w ->
        if index.(w.id) < 0 then begin
          strongconnect w;
          lowlink.(v.id) <- min lowlink.(v.id) lowlink.(w.id)
        end
        else if on_stack.(w.id) then
          lowlink.(v.id) <- min lowlink.(v.id) index.(w.id))
      next;
    if lowlink.(v.id) = index.(v.id) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w.id) <- false;
            if w == v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      match pop [] with
      | [ w ] when not (List.memq w next) -> ()
      | scc -> found := scc :: !found
    end
  in
  List.iter (fun v -> if index.(v.id) < 0 then strongconnect v) nodes;
  List.rev !found

let cyclic_without_muxes ~succs members =
  let kept = List.filter (fun o -> o.kind <> Opkind.Mux) members in
  sccs ~succs:(fun v -> List.filter (fun w -> List.memq w kept) (succs v)) kept
  <> []
