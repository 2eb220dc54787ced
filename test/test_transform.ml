(* Tests for the translators: elaboration, FSM execution, dot, codegen. *)

open Sim
module Dp = Netlist.Datapath
module Builder = Netlist.Dpbuilder
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Elaborate = Transform.Elaborate
module Fsm_exec = Transform.Fsm_exec
module Memory = Operators.Memory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let no_memories _ = failwith "no memories in this design"

(* A hand-built accumulator datapath: acc += 1 while enabled; status
   "limit" rises when acc >= 10. *)
let acc_datapath () =
  let b = Builder.create "acc_dp" in
  let one = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "1") ] () in
  let ten = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "10") ] () in
  let acc = Builder.add_operator b ~id:"acc" ~kind:Reg ~width:8 () in
  let add = Builder.add_operator b ~id:"add0" ~kind:(Bin Add) ~width:8 () in
  let cmp = Builder.add_operator b ~id:"cmp0" ~kind:(Cmp Geu) ~width:8 () in
  Builder.add_control b "acc_en" 1;
  Builder.add_status b ~name:"limit" ~from:(cmp ^ ".y");
  Builder.connect b ~from:(one ^ ".y") [ add ^ ".b" ];
  Builder.connect b ~from:(acc ^ ".q") [ add ^ ".a"; cmp ^ ".a" ];
  Builder.connect b ~from:(ten ^ ".y") [ cmp ^ ".b" ];
  Builder.connect b ~from:(add ^ ".y") [ acc ^ ".d" ];
  Builder.connect b ~from:"ctl.acc_en" [ acc ^ ".en" ];
  Builder.finish b

let acc_fsm () =
  {
    Fsm.fsm_name = "acc_fsm";
    inputs = [ { Fsm.io_name = "limit"; io_width = 1; default = 0 } ];
    outputs = [ { Fsm.io_name = "acc_en"; io_width = 1; default = 0 } ];
    initial = "count";
    states =
      [
        {
          Fsm.sname = "count";
          is_done = false;
          settings = [ ("acc_en", 1) ];
          transitions = [ { Fsm.guard = Guard.parse "limit==1"; target = "halt" } ];
        };
        { Fsm.sname = "halt"; is_done = true; settings = []; transitions = [] };
      ];
  }

let test_elaborate_controls_statuses () =
  let design = Elaborate.datapath ~memories:no_memories (acc_datapath ()) in
  check_int "one control" 1 (List.length design.Elaborate.controls);
  check_int "one status" 1 (List.length design.Elaborate.statuses);
  check_int "five output ports" 5 (List.length design.Elaborate.ports);
  check_int "control width" 1 (Engine.width (Elaborate.control design "acc_en"));
  let raised = try ignore (Elaborate.control design "zz"); false with Failure _ -> true in
  check_bool "unknown control raises" true raised

let test_elaborate_rejects_invalid () =
  let dp = acc_datapath () in
  let broken = { dp with Dp.nets = List.tl dp.Dp.nets } in
  let raised =
    try ignore (Elaborate.datapath ~memories:no_memories broken); false
    with Dp.Invalid _ -> true
  in
  check_bool "invalid datapath rejected" true raised

let test_elaborated_datapath_computes () =
  let design = Elaborate.datapath ~memories:no_memories (acc_datapath ()) in
  let engine = design.Elaborate.engine in
  Engine.drive engine (Elaborate.control design "acc_en") (Bitvec.one 1);
  (* 10 rising edges (t = 5, 15, ..., 95): acc counts to 10. *)
  ignore (Engine.run ~max_time:100 engine);
  check_int "acc reached 10" 10
    (Engine.value_int (Elaborate.port_signal design "acc.q"));
  check_int "limit status" 1 (Engine.value_int (Elaborate.status design "limit"))

let test_fsm_exec_drives_and_stops () =
  let design = Elaborate.datapath ~memories:no_memories (acc_datapath ()) in
  let controller = Fsm_exec.attach ~design (acc_fsm ()) in
  let stopped = ref false in
  Fsm_exec.on_enter_done controller (fun () ->
      stopped := true;
      Engine.request_stop design.Elaborate.engine "done");
  (match Engine.run ~max_time:1000 design.Elaborate.engine with
  | Engine.Stop_requested _ -> ()
  | _ -> Alcotest.fail "expected controller stop");
  check_bool "done hook fired" true !stopped;
  check_str "final state" "halt" (Fsm_exec.current_state controller);
  check_bool "in done state" true (Fsm_exec.in_done_state controller);
  (* The accumulator must have counted to exactly the limit plus the one
     extra enabled cycle spent in the transition to halt. *)
  let acc = Engine.value_int (Elaborate.port_signal design "acc.q") in
  check_bool "acc near limit" true (acc >= 10 && acc <= 11);
  check_int "transitions" 1 (Fsm_exec.transitions_taken controller);
  check_bool "cycles counted" true (Fsm_exec.cycles_seen controller >= 10)

let test_fsm_exec_rejects_mismatch () =
  let design = Elaborate.datapath ~memories:no_memories (acc_datapath ()) in
  let bad_fsm =
    { (acc_fsm ()) with
      Fsm.outputs = [ { Fsm.io_name = "ghost_en"; io_width = 1; default = 0 } ];
      states =
        [
          { Fsm.sname = "count"; is_done = false; settings = [];
            transitions = [ { Fsm.guard = Guard.True; target = "halt" } ] };
          { Fsm.sname = "halt"; is_done = true; settings = []; transitions = [] };
        ];
      inputs = [];
    }
  in
  let raised =
    try ignore (Fsm_exec.attach ~design bad_fsm); false with Failure _ -> true
  in
  check_bool "unknown control rejected" true raised

let test_fsm_exec_state_signal () =
  let design = Elaborate.datapath ~memories:no_memories (acc_datapath ()) in
  let controller = Fsm_exec.attach ~design (acc_fsm ()) in
  Fsm_exec.on_enter_done controller (fun () ->
      Engine.request_stop design.Elaborate.engine "done");
  ignore (Engine.run ~max_time:1000 design.Elaborate.engine);
  check_int "state signal = index of halt" 1
    (Engine.value_int (Fsm_exec.state_signal controller))

(* --- dot --------------------------------------------------------------- *)

let test_dot_datapath () =
  let dot = Dotkit.Dot.to_string (Transform.To_dot.datapath (acc_datapath ())) in
  check_bool "operator node" true (contains "acc" dot);
  check_bool "control house" true (contains "\"ctl.acc_en\"" dot);
  check_bool "status node" true (contains "\"st.limit\"" dot);
  check_bool "net label" true (contains "headlabel" dot)

let test_dot_fsm () =
  let dot = Dotkit.Dot.to_string (Transform.To_dot.fsm (acc_fsm ())) in
  check_bool "entry arrow" true (contains "\"__entry\" -> \"count\"" dot);
  check_bool "done doublecircle" true (contains "doublecircle" dot);
  check_bool "guard label" true (contains "limit==1" dot)

let test_dot_rtg () =
  let rtg =
    {
      Rtg.rtg_name = "r";
      initial = "a";
      configurations =
        [
          { Rtg.cfg_name = "a"; datapath_ref = "a_dp"; fsm_ref = "a_fsm" };
          { Rtg.cfg_name = "b"; datapath_ref = "b_dp"; fsm_ref = "b_fsm" };
        ];
      transitions = [ { Rtg.src = "a"; dst = "b" } ];
    }
  in
  let dot = Dotkit.Dot.to_string (Transform.To_dot.rtg rtg) in
  check_bool "done edge" true (contains "\"a\" -> \"b\" [label=\"done\"]" dot)

(* --- codegen ----------------------------------------------------------- *)

let test_codegen_fsm_shape () =
  let code = Transform.Codegen.fsm (acc_fsm ()) in
  check_bool "type decl" true (contains "type state =" code);
  check_bool "constructors" true (contains "S_count" code);
  check_bool "initial" true (contains "let initial_state = S_count" code);
  check_bool "done" true (contains "| S_halt -> true" code);
  check_bool "guard translated" true (contains "status \"limit\" = 1" code);
  check_bool "outputs decode" true (contains "(\"acc_en\", 1)" code)

let test_codegen_fsm_compiles_semantics () =
  (* Execute the generated step logic by interpretation of its source
     structure: here we just check line_count and the absence of
     obviously broken output. *)
  let code = Transform.Codegen.fsm (acc_fsm ()) in
  check_bool "nonempty" true (Transform.Codegen.line_count code > 10)

let test_codegen_rtg_shape () =
  let rtg =
    {
      Rtg.rtg_name = "seq";
      initial = "a";
      configurations =
        [ { Rtg.cfg_name = "a"; datapath_ref = "dp"; fsm_ref = "fsm" } ];
      transitions = [];
    }
  in
  let code = Transform.Codegen.rtg rtg in
  check_bool "configurations list" true (contains "let configurations" code);
  check_bool "initial" true (contains "let initial = \"a\"" code);
  check_bool "run function" true (contains "let run" code)

let test_codegen_sanitizes_state_names () =
  let fsm =
    {
      Fsm.fsm_name = "f";
      inputs = [];
      outputs = [];
      initial = "b0-s1";
      states =
        [
          { Fsm.sname = "b0-s1"; is_done = false; settings = [];
            transitions = [ { Fsm.guard = Guard.True; target = "b0.s1" } ] };
          { Fsm.sname = "b0.s1"; is_done = true; settings = []; transitions = [] };
        ];
    }
  in
  let code = Transform.Codegen.fsm fsm in
  (* Both names sanitize to S_b0_s1; the second must get a suffix. *)
  check_bool "collision resolved" true (contains "S_b0_s1_0" code)

let test_line_count () =
  check_int "empty" 0 (Transform.Codegen.line_count "");
  check_int "one line no newline" 1 (Transform.Codegen.line_count "x");
  check_int "trailing newline" 2 (Transform.Codegen.line_count "a\nb\n")

(* --- notifications log -------------------------------------------------- *)

let test_models_log () =
  let log = Transform.Models_log.create () in
  let note v =
    Operators.Models.Probe_sample
      { instance = "p0"; time = v; value = Bitvec.create ~width:8 v }
  in
  Transform.Models_log.record log (note 1);
  Transform.Models_log.record log (note 2);
  Transform.Models_log.record log
    (Operators.Models.Check_failed
       { instance = "c0"; time = 5; got = Bitvec.zero 8; expect = Bitvec.one 8 });
  check_int "all" 3 (List.length (Transform.Models_log.all log));
  check_int "failures" 1 (List.length (Transform.Models_log.check_failures log));
  check_int "samples of p0" 2
    (List.length (Transform.Models_log.probe_samples log ~instance:"p0"));
  Transform.Models_log.clear log;
  check_int "cleared" 0 (List.length (Transform.Models_log.all log))

let suite =
  [
    ("elaborate controls/statuses", `Quick, test_elaborate_controls_statuses);
    ("elaborate rejects invalid", `Quick, test_elaborate_rejects_invalid);
    ("elaborated datapath computes", `Quick, test_elaborated_datapath_computes);
    ("fsm_exec drives and stops", `Quick, test_fsm_exec_drives_and_stops);
    ("fsm_exec rejects mismatch", `Quick, test_fsm_exec_rejects_mismatch);
    ("fsm_exec state signal", `Quick, test_fsm_exec_state_signal);
    ("dot datapath", `Quick, test_dot_datapath);
    ("dot fsm", `Quick, test_dot_fsm);
    ("dot rtg", `Quick, test_dot_rtg);
    ("codegen fsm shape", `Quick, test_codegen_fsm_shape);
    ("codegen fsm nonempty", `Quick, test_codegen_fsm_compiles_semantics);
    ("codegen rtg shape", `Quick, test_codegen_rtg_shape);
    ("codegen sanitizes names", `Quick, test_codegen_sanitizes_state_names);
    ("line count", `Quick, test_line_count);
    ("models log", `Quick, test_models_log);
  ]
