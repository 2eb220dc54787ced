module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind
module Memory = Operators.Memory

exception Combinational_cycle of string

type t = {
  fsm : Fsm.t;
  cells : (string, Bitvec.t ref) Hashtbl.t;  (* "inst.port" *)
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
  let e = Elab.of_datapath dp in
  Fsm.validate fsm;
  (* One cell per operator output port, keyed "inst.port". *)
  let cells : (string, Bitvec.t ref) Hashtbl.t = Hashtbl.create 128 in
  List.iter
    (fun (o : Elab.op) ->
      List.iter
        (fun (p : Opspec.port) ->
          if p.Opspec.direction = Opspec.Out then
            Hashtbl.replace cells (Elab.endpoint o p)
              (ref (Bitvec.zero p.Opspec.port_width)))
        o.Elab.spec.Opspec.ports)
    (Elab.ops e);
  let controls =
    List.map
      (fun (c : Dp.control) -> (c.Dp.ctl_name, ref (Bitvec.zero c.Dp.ctl_width)))
      dp.Dp.controls
  in
  let input_cell o port =
    match Elab.driver o port with
    | Elab.Op_out (src, p) -> Hashtbl.find cells (Elab.endpoint src p)
    | Elab.Ctl c -> List.assoc c.Dp.ctl_name controls
  in
  let out_key o = Elab.endpoint o (Elab.out_port o) in
  let out o = Hashtbl.find cells (out_key o) in
  (* Combinational units are evaluated in dependency order; sequential
     outputs (reg/counter q) break the chains, the sram read path does
     not. *)
  let order =
    match Elab.levelize e ~deps:Elab.comb_preds with
    | order, [] -> order
    | _, stuck ->
        raise
          (Combinational_cycle
             (Printf.sprintf "combinational cycle through: %s"
                (String.concat ", "
                   (List.filteri (fun i _ -> i < 6)
                      (List.map (fun (o : Elab.op) -> o.Elab.name) stuck)))))
  in
  (* Evaluation closure per combinational unit. *)
  let eval_of (o : Elab.op) =
    let width = o.Elab.width and p = o.Elab.spec.Opspec.params and y = out o in
    let unary f =
      let a = input_cell o "a" in
      fun () -> y := f !a
    in
    let binary f =
      let a = input_cell o "a" and b = input_cell o "b" in
      fun () -> y := f !a !b
    in
    match o.Elab.kind with
    | Const ->
        let v = Bitvec.create ~width p.value in
        fun () -> y := v
    | Zext -> unary (fun a -> Bitvec.resize a width)
    | Sext -> unary (fun a -> Bitvec.sresize a width)
    | Un u -> unary (Opkind.un_bitvec u)
    | Bin b -> binary (Opkind.bin_bitvec b)
    | Cmp c -> binary (Opkind.cmp_bitvec c)
    | Mux ->
        let n = p.inputs in
        let ins = Array.init n (fun i -> input_cell o (Printf.sprintf "in%d" i)) in
        let sel = input_cell o "sel" in
        fun () -> y := !(ins.(min (Bitvec.to_int !sel) (n - 1)))
    | Sram | Rom ->
        let memory = memories p.memory in
        let addr = input_cell o "addr" in
        fun () -> y := Memory.read memory (Bitvec.to_int !addr)
    | Reg | Counter | Check | Stop | Probe -> assert false (* not comb *)
  in
  (* Fault injection: corrupt a unit's output cell right after it
     evaluates, so downstream units (later in topo order) consume the
     corrupted value — the same commit-point the event kernel corrupts. *)
  let wrap_output o base =
    match corrupt (out_key o) with
    | None -> base
    | Some f ->
        let cell = out o in
        fun () ->
          base ();
          cell := f !cell
  in
  let comb = Array.of_list (List.map (fun o -> wrap_output o (eval_of o)) order) in
  (* Sequential elements: two-phase latch. *)
  let latches = ref [] and commits = ref [] in
  let t_ref = ref None in
  List.iter
    (fun (o : Elab.op) ->
      let width = o.Elab.width and p = o.Elab.spec.Opspec.params in
      (* Same commit-point corruption for the state-holding outputs. *)
      let corrupt_q = corrupt (o.Elab.name ^ ".q") in
      let commit_q q pending =
        match corrupt_q with
        | None -> fun () -> q := !pending
        | Some f -> fun () -> q := f !pending
      in
      match o.Elab.kind with
      | Reg ->
          let d = input_cell o "d" and en = input_cell o "en" in
          let q = out o in
          q := Bitvec.create ~width (Option.value p.init ~default:0);
          (match corrupt_q with Some f -> q := f !q | None -> ());
          let pending = ref !q in
          latches :=
            (fun () -> pending := (if Bitvec.to_bool !en then !d else !q))
            :: !latches;
          commits := commit_q q pending :: !commits
      | Counter ->
          let en = input_cell o "en"
          and load = input_cell o "load"
          and d = input_cell o "d" in
          let q = out o in
          (match corrupt_q with Some f -> q := f !q | None -> ());
          let step = Bitvec.create ~width p.step in
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
          let memory = memories p.memory in
          let addr = input_cell o "addr"
          and din = input_cell o "din"
          and we = input_cell o "we" in
          (* Memory writes commit after all register reads of this cycle
             already happened during the comb phase, so direct commit is
             safe. *)
          commits :=
            (fun () ->
              if Bitvec.to_bool !we then
                Memory.write memory (Bitvec.to_int !addr) !din)
            :: !commits
      | Check ->
          let a = input_cell o "a" and en = input_cell o "en" in
          let expect = Bitvec.create ~width p.value in
          latches :=
            (fun () ->
              if Bitvec.to_bool !en && not (Bitvec.equal !a expect) then
                match !t_ref with
                | Some t ->
                    t.n_check_failures <- t.n_check_failures + 1;
                    if p.action = Halt then t.stop_fired <- true
                | None -> ())
            :: !latches
      | Stop ->
          let en = input_cell o "en" in
          latches :=
            (fun () ->
              if Bitvec.to_bool !en then
                match !t_ref with
                | Some t -> t.stop_fired <- true
                | None -> ())
            :: !latches
      | Bin _ | Cmp _ | Un _ | Const | Zext | Sext | Mux | Rom | Probe -> ())
    (Elab.ops e);
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
