(* Tests for the levelized cycle-based simulator, including exact
   equivalence with the event-driven kernel. *)

module Compile = Compiler.Compile
module Verify = Testinfra.Verify
module Simulate = Testinfra.Simulate
module Memory = Operators.Memory
module Builder = Netlist.Dpbuilder
module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src = Compile.compile (Lang.Parser.parse_string src)

(* Run one single-partition program under both simulators; return the
   final memory images and cycle counts. *)
let run_both src inits =
  let prog = Lang.Parser.parse_string src in
  let compiled = compile src in
  let p = List.hd compiled.Compile.partitions in
  (* Event-driven. *)
  let ev_lookup, ev_stores = Verify.memory_env prog ~inits in
  let ev =
    Simulate.run_configuration ~memories:ev_lookup p.Compile.datapath
      p.Compile.fsm
  in
  (* Cycle-based. *)
  let cy_lookup, cy_stores = Verify.memory_env prog ~inits in
  let cy = Cyclesim.create ~memories:cy_lookup p.Compile.datapath p.Compile.fsm in
  let outcome = Cyclesim.run cy in
  ( (ev, List.map (fun (n, m) -> (n, Memory.to_list m)) ev_stores),
    (cy, outcome, List.map (fun (n, m) -> (n, Memory.to_list m)) cy_stores) )

let test_equivalence_hamming () =
  let codes = Workloads.Hamming.make_codewords ~n:32 ~seed:9 in
  let (ev, ev_mems), (cy, outcome, cy_mems) =
    run_both (Workloads.Hamming.source ~n:32) [ ("input", codes) ]
  in
  check_bool "event run completed" true ev.Simulate.completed;
  check_bool "cycle run done" true (outcome = `Done);
  check_bool "memories identical" true (ev_mems = cy_mems);
  check_int "cycle counts identical" ev.Simulate.cycles (Cyclesim.cycles cy)

let test_equivalence_fdct () =
  let img = Workloads.Fdct.make_image ~width_px:8 ~height_px:8 ~seed:12 in
  let (ev, ev_mems), (cy, outcome, cy_mems) =
    run_both (Workloads.Fdct.source ~width_px:8 ~height_px:8 ()) [ ("input", img) ]
  in
  check_bool "both complete" true (ev.Simulate.completed && outcome = `Done);
  check_bool "memories identical" true (ev_mems = cy_mems);
  check_int "cycle counts identical" ev.Simulate.cycles (Cyclesim.cycles cy)

let test_port_and_state_access () =
  let (_, _), (cy, outcome, _) =
    run_both "program t width 8; var a; a = 7;" []
  in
  check_bool "done" true (outcome = `Done);
  Alcotest.(check string) "final state" "halt" (Cyclesim.current_state cy);
  check_int "register value" 7 (Bitvec.to_int (Cyclesim.port_value cy "r_a.q"))

let test_max_cycles () =
  let compiled = compile "program t width 8; var a; while (a == 0) { a = 0; }" in
  let p = List.hd compiled.Compile.partitions in
  let cy = Cyclesim.create ~memories:(fun _ -> failwith "none") p.Compile.datapath p.Compile.fsm in
  check_bool "hits bound" true (Cyclesim.run ~max_cycles:100 cy = `Max_cycles)

let test_check_failures_counted () =
  let compiled =
    compile "program t width 16; var i; for (i = 0; i < 4; i = i + 1) { assert (i < 2); }"
  in
  let p = List.hd compiled.Compile.partitions in
  let cy = Cyclesim.create ~memories:(fun _ -> failwith "none") p.Compile.datapath p.Compile.fsm in
  check_bool "done" true (Cyclesim.run cy = `Done);
  check_int "two violations" 2 (Cyclesim.check_failures cy)

(* The compiled [a = 7] program plus an [add] whose output feeds its own
   input [a]: a combinational self-loop, which lint reports as DP013. *)
let self_loop_partition () =
  let compiled = compile "program t width 8; var a; a = 7;" in
  let p = List.hd compiled.Compile.partitions in
  let dp = p.Compile.datapath in
  let net net_id src sink =
    {
      Dp.net_id;
      net_width = 8;
      source = Dp.From_op (Dp.endpoint_of_string src);
      sinks = [ Dp.endpoint_of_string sink ];
    }
  in
  let dp =
    {
      dp with
      Dp.operators =
        dp.Dp.operators
        @ [
            { Dp.id = "loop"; kind = Bin Add; width = 8; params = [] };
            { Dp.id = "loop_b"; kind = Const; width = 8; params = [ ("value", "1") ] };
          ];
      nets =
        dp.Dp.nets
        @ [ net "n_loop" "loop.y" "loop.a"; net "n_loop_b" "loop_b.y" "loop.b" ];
    }
  in
  (compiled, { p with Compile.datapath = dp })

let test_shared_design_rejected () =
  (* Operator sharing creates structural combinational cycles the
     levelized evaluator cannot order; it must refuse, not mis-simulate. *)
  (* One state computes mul -> add, another add -> mul: with pooled
     instances the two shared units feed each other structurally. *)
  let src =
    "program t width 16; var a; var b; a = a * b + 1; b = (a + 2) * b;"
  in
  let compiled =
    Compile.compile
      ~options:{ Compile.share_operators = true; optimize = false; fold_branches = false }
      (Lang.Parser.parse_string src)
  in
  let rejected (p : Compile.partition) =
    try
      ignore
        (Cyclesim.create ~memories:(fun _ -> failwith "none")
           p.Compile.datapath p.Compile.fsm);
      false
    with Cyclesim.Combinational_cycle _ -> true
  in
  check_bool "combinational cycle rejected" true
    (rejected (List.hd compiled.Compile.partitions));
  check_bool "combinational self-loop rejected" true
    (rejected (snd (self_loop_partition ())))

let random_program =
  QCheck2.Gen.(
    let piece =
      oneofl
        [
          "a = a + 1;";
          "b = a * 3 - b;";
          "m[0] = a;";
          "a = m[1] ^ b;";
          "if (a > b) { a = a - b; } else { b = b + 2; }";
          "while (a < 15) { a = a + 4; }";
          "m[a & 3] = b;";
          "assert (a < 100);";
        ]
    in
    list_size (int_range 1 8) piece >|= fun stmts ->
    "program rnd width 16; mem m[4]; var a; var b;\na = 2; b = 5;\n"
    ^ String.concat "\n" stmts)

let prop_equivalence =
  QCheck2.Test.make
    ~name:"cycle-based = event-driven (memories and cycle count)" ~count:40
    random_program
    (fun src ->
      let (ev, ev_mems), (cy, outcome, cy_mems) =
        run_both src [ ("m", [ 3; 1; 4; 1 ]) ]
      in
      ev.Simulate.completed && outcome = `Done && ev_mems = cy_mems
      && ev.Simulate.cycles = Cyclesim.cycles cy)

(* A failing check with action="stop" ends the run in every simulator,
   on the same cycle. A free-running register counts up from 0 under a
   check expecting 0, so the check fails at the second rising edge. *)
let test_stop_check_ends_every_simulator () =
  let compiled = compile "program t width 8; var a; a = 1;" in
  let p = List.hd compiled.Compile.partitions in
  let b = Builder.create p.Compile.datapath.Dp.dp_name in
  let r = Builder.add_operator b ~id:"r" ~kind:Reg ~width:8 ~params:[ ("init", "0") ] () in
  let one = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "1") ] () in
  let inc = Builder.add_operator b ~id:"inc" ~kind:(Bin Add) ~width:8 () in
  let chk =
    Builder.add_operator b ~id:"chk" ~kind:Check ~width:8
      ~params:[ ("value", "0"); ("action", "stop") ] ()
  in
  Builder.add_control b "en" 1;
  Builder.connect b ~from:(r ^ ".q") [ inc ^ ".a"; chk ^ ".a" ];
  Builder.connect b ~from:(one ^ ".y") [ inc ^ ".b" ];
  Builder.connect b ~from:(inc ^ ".y") [ r ^ ".d" ];
  Builder.connect b ~from:"ctl.en" [ r ^ ".en"; chk ^ ".en" ];
  let dp = Builder.finish b in
  let fsm =
    {
      p.Compile.fsm with
      Fsm.inputs = [];
      outputs = [ { Fsm.io_name = "en"; io_width = 1; default = 0 } ];
      initial = "run";
      states =
        [
          {
            Fsm.sname = "run";
            is_done = false;
            settings = [ ("en", 1) ];
            transitions = [ { Fsm.guard = Fsmkit.Guard.True; target = "run" } ];
          };
        ];
    }
  in
  let memories _ = failwith "no memories" in
  let ev = Simulate.run_configuration ~max_cycles:100 ~memories dp fsm in
  check_bool "event: stopped" true
    (match ev.Simulate.stop with Sim.Engine.Stop_requested _ -> true | _ -> false);
  let cy = Cyclesim.create ~memories dp fsm in
  check_bool "cycle: stopped" true (Cyclesim.run ~max_cycles:100 cy = `Stopped);
  check_int "cycle: same cycle" ev.Simulate.cycles (Cyclesim.cycles cy);
  let compiled =
    { compiled with Compile.partitions = [ { p with Compile.datapath = dp; fsm } ] }
  in
  let fs =
    (Fastsim.run ~max_cycles:100 (Fastsim.compile compiled)
       [| Fastsim.clean_lane memories |]).(0)
  in
  check_bool "fastsim: stopped" false fs.Fastsim.completed;
  check_int "fastsim: one failure" 1 fs.Fastsim.checks;
  check_int "fastsim: same cycle" ev.Simulate.cycles fs.Fastsim.total_cycles

let suite =
  [
    ("equivalence on hamming", `Quick, test_equivalence_hamming);
    ("equivalence on fdct", `Quick, test_equivalence_fdct);
    ("port and state access", `Quick, test_port_and_state_access);
    ("max cycles", `Quick, test_max_cycles);
    ("check failures counted", `Quick, test_check_failures_counted);
    ("shared design rejected", `Quick, test_shared_design_rejected);
    ("failing stop check ends every simulator", `Quick, test_stop_check_ends_every_simulator);
    QCheck_alcotest.to_alcotest prop_equivalence;
  ]
