module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind
module Memory = Operators.Memory

exception Combinational_cycle of string

type t = {
  fsm : Fsm.t;
  cells : (string, Bitvec.t ref) Hashtbl.t;  (* "inst.port" / "ctl.name" *)
  comb : (unit -> unit) array;  (* evaluation closures, topo order *)
  latch : (unit -> unit) array;  (* phase 1: compute pending values *)
  commit : (unit -> unit) array;  (* phase 2: apply pending values *)
  statuses : (string * Bitvec.t ref) list;
  controls : (string * Bitvec.t ref) list;
  mutable state : Fsm.state;
  mutable n_cycles : int;
  mutable n_check_failures : int;
  mutable stop_fired : bool;
}

let create ?(corrupt = fun _ -> None) ~memories (dp : Dp.t) (fsm : Fsm.t) =
  Dp.validate dp;
  Fsm.validate fsm;
  let cells : (string, Bitvec.t ref) Hashtbl.t = Hashtbl.create 128 in
  let cell key width =
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
        let c = ref (Bitvec.zero width) in
        Hashtbl.replace cells key c;
        c
  in
  (* Output-port and control cells. *)
  List.iter
    (fun (op : Dp.operator) ->
      List.iter
        (fun (p : Opspec.port) ->
          if p.Opspec.direction = Opspec.Out then
            ignore (cell (op.Dp.id ^ "." ^ p.Opspec.port_name) p.Opspec.port_width))
        (Dp.operator_spec op).Opspec.ports)
    dp.Dp.operators;
  let controls =
    List.map
      (fun (c : Dp.control) ->
        (c.Dp.ctl_name, cell ("ctl." ^ c.Dp.ctl_name) c.Dp.ctl_width))
      dp.Dp.controls
  in
  (* Input port -> driving cell (plus the driving instance for the
     dependency graph). *)
  let driver : (string, string) Hashtbl.t = Hashtbl.create 128 in
  List.iter
    (fun (n : Dp.net) ->
      let src =
        match n.Dp.source with
        | Dp.From_op ep -> Dp.endpoint_to_string ep
        | Dp.From_control name -> "ctl." ^ name
      in
      List.iter
        (fun ep -> Hashtbl.replace driver (Dp.endpoint_to_string ep) src)
        n.Dp.sinks)
    dp.Dp.nets;
  let input_cell op port =
    let key = op.Dp.id ^ "." ^ port in
    match Hashtbl.find_opt driver key with
    | Some src -> Hashtbl.find cells src
    | None -> failwith ("cyclesim: unconnected input " ^ key)
  in
  let input_driver_inst op port =
    (* The instance producing the value feeding [op.port], if any. *)
    match Hashtbl.find_opt driver (op.Dp.id ^ "." ^ port) with
    | Some src when not (String.length src >= 4 && String.sub src 0 4 = "ctl.") ->
        Some (Dp.endpoint_of_string src).Dp.inst
    | Some _ | None -> None
  in
  (* Classify operators. Combinational units are topologically sorted by
     "produces a value consumed by"; sequential outputs (reg/counter q)
     break the dependency chains. The sram read path is combinational. *)
  let spec_of (op : Dp.operator) = Dp.operator_spec op in
  let kind_of op = (spec_of op).Opspec.kind in
  let comb_ops = List.filter (fun op -> Opkind.is_comb (kind_of op)) dp.Dp.operators in
  let comb_ids = List.map (fun (op : Dp.operator) -> op.Dp.id) comb_ops in
  let comb_deps (op : Dp.operator) =
    (* Combinational predecessors among comb instances. Sequential q
       outputs and sram dout are state-like... no: sram dout is produced
       by a comb unit (the sram read), so it IS a dependency. Register
       and counter outputs are state and excluded. *)
    List.filter_map
      (fun (p : Opspec.port) ->
        if p.Opspec.direction = Opspec.In then
          match input_driver_inst op p.Opspec.port_name with
          | Some inst when List.mem inst comb_ids -> Some inst
          | Some _ | None -> None
        else None)
      (spec_of op).Opspec.ports
  in
  (* Kahn's algorithm. *)
  let order =
    let indeg = Hashtbl.create 64 in
    let succs = Hashtbl.create 64 in
    List.iter (fun id -> Hashtbl.replace indeg id 0) comb_ids;
    List.iter
      (fun (op : Dp.operator) ->
        List.iter
          (fun dep ->
            if dep <> op.Dp.id then begin
              Hashtbl.replace succs dep
                (op.Dp.id :: Option.value ~default:[] (Hashtbl.find_opt succs dep));
              Hashtbl.replace indeg op.Dp.id
                (1 + Option.value ~default:0 (Hashtbl.find_opt indeg op.Dp.id))
            end)
          (List.sort_uniq compare (comb_deps op)))
      comb_ops;
    let ready =
      ref (List.filter (fun id -> Hashtbl.find indeg id = 0) comb_ids)
    in
    let out = ref [] in
    while !ready <> [] do
      match !ready with
      | [] -> ()
      | id :: rest ->
          ready := rest;
          out := id :: !out;
          List.iter
            (fun s ->
              let d = Hashtbl.find indeg s - 1 in
              Hashtbl.replace indeg s d;
              if d = 0 then ready := s :: !ready)
            (Option.value ~default:[] (Hashtbl.find_opt succs id))
    done;
    let sorted = List.rev !out in
    if List.length sorted <> List.length comb_ids then begin
      let stuck =
        List.filter (fun id -> not (List.mem id sorted)) comb_ids
      in
      raise
        (Combinational_cycle
           (Printf.sprintf "combinational cycle through: %s"
              (String.concat ", "
                 (List.filteri (fun i _ -> i < 6) stuck))))
    end;
    sorted
  in
  let op_by_id id = Option.get (Dp.find_operator dp id) in
  (* Evaluation closure per combinational unit. *)
  let eval_of id =
    let op = op_by_id id in
    let out port = Hashtbl.find cells (op.Dp.id ^ "." ^ port) in
    let width = op.Dp.width in
    let unary f =
      let a = input_cell op "a" and y = out "y" in
      fun () -> y := f !a
    in
    let binary f =
      let a = input_cell op "a" and b = input_cell op "b" and y = out "y" in
      fun () -> y := f !a !b
    in
    match kind_of op with
    | Const ->
        let v =
          Bitvec.create ~width (Opspec.require_int op.Dp.params ~kind:"const" "value")
        in
        let y = out "y" in
        fun () -> y := v
    | Zext -> unary (fun a -> Bitvec.resize a width)
    | Sext -> unary (fun a -> Bitvec.sresize a width)
    | Un u -> unary (Opkind.un_bitvec u)
    | Bin b -> binary (Opkind.bin_bitvec b)
    | Cmp c -> binary (Opkind.cmp_bitvec c)
    | Mux ->
        let n = Opspec.param_int op.Dp.params "inputs" ~default:2 in
        let ins = Array.init n (fun i -> input_cell op (Printf.sprintf "in%d" i)) in
        let sel = input_cell op "sel" and y = out "y" in
        fun () -> y := !(ins.(min (Bitvec.to_int !sel) (n - 1)))
    | Sram | Rom ->
        let memory =
          memories (Opspec.require_string op.Dp.params ~kind:op.Dp.kind "memory")
        in
        let addr = input_cell op "addr" and dout = out "dout" in
        fun () -> dout := Memory.read memory (Bitvec.to_int !addr)
    | Reg | Counter | Check | Stop | Probe -> assert false (* not comb *)
  in
  (* Fault injection: corrupt a unit's output cell right after it
     evaluates, so downstream units (later in topo order) consume the
     corrupted value — the same commit-point the event kernel corrupts. *)
  let wrap_output id base =
    let op = op_by_id id in
    let out_port = match kind_of op with Sram | Rom -> "dout" | _ -> "y" in
    let key = op.Dp.id ^ "." ^ out_port in
    match corrupt key with
    | None -> base
    | Some f ->
        let cell = Hashtbl.find cells key in
        fun () ->
          base ();
          cell := f !cell
  in
  let comb = Array.of_list (List.map (fun id -> wrap_output id (eval_of id)) order) in
  (* Sequential elements: two-phase latch. *)
  let latches = ref [] and commits = ref [] in
  let t_ref = ref None in
  List.iter
    (fun (op : Dp.operator) ->
      let out port = Hashtbl.find cells (op.Dp.id ^ "." ^ port) in
      (* Same commit-point corruption for the state-holding outputs. *)
      let corrupt_q = corrupt (op.Dp.id ^ ".q") in
      let commit_q q pending =
        match corrupt_q with
        | None -> fun () -> q := !pending
        | Some f -> fun () -> q := f !pending
      in
      match kind_of op with
      | Reg ->
          let d = input_cell op "d" and en = input_cell op "en" in
          let q = out "q" in
          q := Bitvec.create ~width:op.Dp.width
                 (Opspec.param_int op.Dp.params "init" ~default:0);
          (match corrupt_q with Some f -> q := f !q | None -> ());
          let pending = ref !q in
          latches :=
            (fun () -> pending := (if Bitvec.to_bool !en then !d else !q))
            :: !latches;
          commits := commit_q q pending :: !commits
      | Counter ->
          let en = input_cell op "en"
          and load = input_cell op "load"
          and d = input_cell op "d" in
          let q = out "q" in
          (match corrupt_q with Some f -> q := f !q | None -> ());
          let step =
            Bitvec.create ~width:op.Dp.width
              (Opspec.param_int op.Dp.params "step" ~default:1)
          in
          let pending = ref !q in
          latches :=
            (fun () ->
              pending :=
                (if Bitvec.to_bool !load then !d
                 else if Bitvec.to_bool !en then Bitvec.add !q step
                 else !q))
            :: !latches;
          commits := commit_q q pending :: !commits
      | Sram ->
          let memory =
            memories (Opspec.require_string op.Dp.params ~kind:"sram" "memory")
          in
          let addr = input_cell op "addr"
          and din = input_cell op "din"
          and we = input_cell op "we" in
          (* Memory writes commit after all register reads of this cycle
             already happened during the comb phase, so direct commit is
             safe. *)
          commits :=
            (fun () ->
              if Bitvec.to_bool !we then
                Memory.write memory (Bitvec.to_int !addr) !din)
            :: !commits
      | Check ->
          let a = input_cell op "a" and en = input_cell op "en" in
          let expect =
            Bitvec.create ~width:op.Dp.width
              (Opspec.require_int op.Dp.params ~kind:"check" "value")
          in
          latches :=
            (fun () ->
              if Bitvec.to_bool !en && not (Bitvec.equal !a expect) then
                match !t_ref with
                | Some t -> t.n_check_failures <- t.n_check_failures + 1
                | None -> ())
            :: !latches
      | Stop ->
          let en = input_cell op "en" in
          latches :=
            (fun () ->
              if Bitvec.to_bool !en then
                match !t_ref with
                | Some t -> t.stop_fired <- true
                | None -> ())
            :: !latches
      | _ -> ())
    dp.Dp.operators;
  (* FSM wiring: controls driven from the Moore decode, statuses read from
     the datapath cells. *)
  let fsm_controls =
    List.map
      (fun (o : Fsm.io) ->
        match List.assoc_opt o.Fsm.io_name controls with
        | Some c -> (o.Fsm.io_name, c, o.Fsm.io_width)
        | None ->
            failwith
              (Printf.sprintf "cyclesim: design has no control %S" o.Fsm.io_name))
      fsm.Fsm.outputs
  in
  let statuses =
    List.map
      (fun (st : Dp.status) ->
        (st.Dp.st_name, Hashtbl.find cells (Dp.endpoint_to_string st.Dp.st_source)))
      dp.Dp.statuses
  in
  List.iter
    (fun (i : Fsm.io) ->
      if not (List.mem_assoc i.Fsm.io_name statuses) then
        failwith
          (Printf.sprintf "cyclesim: design has no status %S" i.Fsm.io_name))
    fsm.Fsm.inputs;
  let initial = Option.get (Fsm.find_state fsm fsm.Fsm.initial) in
  let t =
    {
      fsm;
      cells;
      comb;
      latch = Array.of_list (List.rev !latches);
      commit = Array.of_list (List.rev !commits);
      statuses;
      controls = List.map (fun (n, c, _) -> (n, c)) fsm_controls;
      state = initial;
      n_cycles = 0;
      n_check_failures = 0;
      stop_fired = false;
    }
  in
  t_ref := Some t;
  t

let drive_controls t =
  List.iter
    (fun (name, c) ->
      let value = Fsm.output_in_state t.fsm t.state name in
      c := Bitvec.create ~width:(Bitvec.width !c) value)
    t.controls

let step t =
  t.n_cycles <- t.n_cycles + 1;
  (* Phase 1: Moore outputs of the current state + full comb settle. *)
  drive_controls t;
  Array.iter (fun f -> f ()) t.comb;
  (* Phase 2: next state from settled statuses. *)
  let lookup name =
    match List.assoc_opt name t.statuses with
    | Some c -> Bitvec.to_int !c
    | None -> failwith ("cyclesim: unknown status " ^ name)
  in
  let rec first_match = function
    | [] -> t.state
    | (tr : Fsm.transition) :: rest ->
        if Guard.eval tr.Fsm.guard lookup then
          Option.get (Fsm.find_state t.fsm tr.Fsm.target)
        else first_match rest
  in
  let next = first_match t.state.Fsm.transitions in
  (* Phase 3: latch sequential elements (reads), then commit (writes). *)
  Array.iter (fun f -> f ()) t.latch;
  Array.iter (fun f -> f ()) t.commit;
  t.state <- next

let cycles t = t.n_cycles
let current_state t = t.state.Fsm.sname
let in_done_state t = t.state.Fsm.is_done
let check_failures t = t.n_check_failures

let port_value t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> !c
  | None -> failwith ("cyclesim: unknown port " ^ key)

let run ?(max_cycles = 10_000_000) t =
  let rec go () =
    if in_done_state t then `Done
    else if t.stop_fired then `Stopped
    else if t.n_cycles >= max_cycles then `Max_cycles
    else begin
      step t;
      go ()
    end
  in
  go ()
