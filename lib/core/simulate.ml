open Sim
module Elaborate = Transform.Elaborate
module Fsm_exec = Transform.Fsm_exec
module Models_log = Transform.Models_log

type injection = {
  inj_cfg : string option;
  inj_port : string;
  inj_transform : Bitvec.t -> Bitvec.t;
}

type config_run = {
  cfg_name : string;
  stop : Engine.stop_reason;
  completed : bool;
  cycles : int;
  sim_stats : Engine.stats;
  final_state : string;
  wall_seconds : float;
  notifications : Operators.Models.notification list;
  budget_failure : Budget.failure option;
}

type rtg_run = {
  runs : config_run list;
  all_completed : bool;
  total_cycles : int;
  total_wall_seconds : float;
  budget_failure : Budget.failure option;
}

(* Drive the engine to [max_time]. Without a budget this is one
   [Engine.run] call. With one, the run is cut into slices of
   [Budget.slice_cycles] clock periods; between slices the budget is
   consulted, so a simulation that would grind on for minutes dies at
   its wall-clock deadline (or a Ctrl-C) within one slice — the
   cooperative watchdog the campaign drivers rely on. *)
let run_engine ?budget ~clock_period ~max_time engine =
  match budget with
  | None -> (Engine.run ~max_time engine, None)
  | Some b ->
      let slice_ticks =
        max 1 (Budget.saturating_mul clock_period (Budget.slice_cycles b))
      in
      let rec go () =
        match Budget.check b with
        | Some f ->
            (Engine.Stop_requested ("budget: " ^ Budget.failure_label f), Some f)
        | None ->
            let t = Engine.now engine in
            let target =
              if max_time - t <= slice_ticks then max_time
              else t + slice_ticks
            in
            let r = Engine.run ~max_time:target engine in
            (match r with
            | Engine.Max_time_reached when target < max_time -> go ()
            | r -> (r, None))
      in
      go ()

let run_configuration ?(clock_period = 10) ?(max_cycles = 10_000_000)
    ?vcd_path ?name ?(injections = []) ?budget ~memories datapath fsm =
  let started = Monotonic_clock.now () in
  let cfg_label =
    match name with Some n -> n | None -> datapath.Netlist.Datapath.dp_name
  in
  let engine = Engine.create () in
  let clock = Clock.create engine ~period:clock_period () in
  let design = Elaborate.datapath ~engine ~clock ~memories datapath in
  let controller = Fsm_exec.attach ~design fsm in
  (* Fault injection: corrupt the targeted output-port signals before the
     first delta runs, so the defect is present from power-on. *)
  List.iter
    (fun inj ->
      let applies =
        match inj.inj_cfg with None -> true | Some c -> c = cfg_label
      in
      if applies then
        match List.assoc_opt inj.inj_port design.Elaborate.ports with
        | Some s -> Engine.corrupt_signal engine s inj.inj_transform
        | None -> ())
    injections;
  Fsm_exec.on_enter_done controller (fun () ->
      Engine.request_stop engine "controller done");
  let dump =
    match vcd_path with
    | None -> None
    | Some path ->
        let signals =
          (("clk", Clock.signal clock) :: design.Elaborate.controls)
          @ design.Elaborate.statuses
          @ [ ("fsm_state", Fsm_exec.state_signal controller) ]
          @ design.Elaborate.ports
        in
        Some (Vcd.create_file path engine signals)
  in
  let max_time = Budget.saturating_mul clock_period max_cycles in
  let stop, budget_failure = run_engine ?budget ~clock_period ~max_time engine in
  (match dump with Some d -> Vcd.close d | None -> ());
  let completed = Fsm_exec.in_done_state controller in
  {
    cfg_name = cfg_label;
    stop;
    completed;
    cycles = Fsm_exec.cycles_seen controller;
    sim_stats = Engine.stats engine;
    final_state = Fsm_exec.current_state controller;
    wall_seconds =
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) started) *. 1e-9;
    notifications = Models_log.all design.Elaborate.notifications;
    budget_failure;
  }

let injection_resolves (dp : Netlist.Datapath.t) port =
  match String.index_opt port '.' with
  | None -> false
  | Some _ ->
      let ep = Netlist.Datapath.endpoint_of_string port in
      (match Netlist.Datapath.find_operator dp ep.Netlist.Datapath.inst with
      | None -> false
      | Some op ->
          List.exists
            (fun (p : Operators.Opspec.port) ->
              p.Operators.Opspec.direction = Operators.Opspec.Out
              && p.Operators.Opspec.port_name = ep.Netlist.Datapath.port)
            (Netlist.Datapath.operator_spec op).Operators.Opspec.ports)

let run_rtg ?clock_period ?max_cycles ?(injections = []) ?budget ~memories
    ~datapaths ~fsms rtg =
  Rtg.validate rtg;
  (* An injection naming a port no datapath has would silently test
     nothing — reject it up front. *)
  List.iter
    (fun inj ->
      if
        not
          (List.exists (fun (_, dp) -> injection_resolves dp inj.inj_port) datapaths)
      then
        invalid_arg
          (Printf.sprintf "run_rtg: injection targets unknown port %S"
             inj.inj_port))
    injections;
  let resolve what table name =
    match List.assoc_opt name table with
    | Some v -> v
    | None -> failwith (Printf.sprintf "run_rtg: unresolved %s %S" what name)
  in
  let order = Rtg.execution_order rtg in
  let rec go acc = function
    | [] -> List.rev acc
    | cfg_name :: rest ->
        let cfg =
          match Rtg.find_configuration rtg cfg_name with
          | Some c -> c
          | None -> failwith (Printf.sprintf "run_rtg: no configuration %S" cfg_name)
        in
        let datapath = resolve "datapath" datapaths cfg.Rtg.datapath_ref in
        let fsm = resolve "fsm" fsms cfg.Rtg.fsm_ref in
        let run =
          run_configuration ?clock_period ?max_cycles ~name:cfg_name
            ~injections ?budget ~memories datapath fsm
        in
        if run.completed then go (run :: acc) rest else List.rev (run :: acc)
  in
  let runs = go [] order in
  {
    runs;
    all_completed =
      List.length runs = List.length order
      && List.for_all (fun r -> r.completed) runs;
    total_cycles = List.fold_left (fun acc r -> acc + r.cycles) 0 runs;
    total_wall_seconds =
      List.fold_left (fun acc r -> acc +. r.wall_seconds) 0. runs;
    budget_failure =
      List.find_map (fun (r : config_run) -> r.budget_failure) runs;
  }

let run_compiled ?clock_period ?max_cycles ?injections ?(mutate_fsm = Fun.id)
    ?budget ~memories (compiled : Compiler.Compile.t) =
  let datapaths =
    List.map
      (fun (p : Compiler.Compile.partition) ->
        (p.Compiler.Compile.datapath.Netlist.Datapath.dp_name,
         p.Compiler.Compile.datapath))
      compiled.Compiler.Compile.partitions
  in
  let fsms =
    List.map
      (fun (p : Compiler.Compile.partition) ->
        let fsm = mutate_fsm p.Compiler.Compile.fsm in
        (p.Compiler.Compile.fsm.Fsmkit.Fsm.fsm_name, fsm))
      compiled.Compiler.Compile.partitions
  in
  run_rtg ?clock_period ?max_cycles ?injections ?budget ~memories ~datapaths
    ~fsms compiled.Compiler.Compile.rtg
