(* Tests for the compiler: lowering, CFG construction, hardware
   generation, the driver, and partition-flow analysis. *)

module Ast = Lang.Ast
module Parser = Lang.Parser
module Ir = Compiler.Ir
module Cfg = Compiler.Cfg
module Hwgen = Compiler.Hwgen
module Compile = Compiler.Compile
module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Parser.parse_string

(* --- lowering --------------------------------------------------------- *)

let test_lower_hoists_reads () =
  let t = Ir.make_temp_alloc () in
  let stmts =
    Ir.lower_stmt_simple t
      (Ast.Assign ("x", Ast.Binop (Ast.Add, Ast.Mem_read ("m", Ast.Int 0),
                                   Ast.Mem_read ("m", Ast.Int 1))))
  in
  match stmts with
  | [ Ir.Sload (t0, "m", Ast.Int 0); Ir.Sload (t1, "m", Ast.Int 1);
      Ir.Sassign ("x", Ast.Binop (Ast.Add, Ast.Var v0, Ast.Var v1)) ] ->
      check_bool "temps used in order" true (v0 = t0 && v1 = t1);
      check_int "two temps" 2 (List.length (Ir.temps_allocated t))
  | _ -> Alcotest.fail "unexpected lowering"

let test_lower_nested_read_address () =
  let t = Ir.make_temp_alloc () in
  let stmts =
    Ir.lower_stmt_simple t
      (Ast.Assign ("x", Ast.Mem_read ("m", Ast.Mem_read ("m", Ast.Var "i"))))
  in
  match stmts with
  | [ Ir.Sload (_, "m", Ast.Var "i"); Ir.Sload (_, "m", Ast.Var _);
      Ir.Sassign ("x", Ast.Var _) ] -> ()
  | _ -> Alcotest.fail "nested read lowering"

let test_lower_store () =
  let t = Ir.make_temp_alloc () in
  let stmts =
    Ir.lower_stmt_simple t
      (Ast.Mem_write ("m", Ast.Var "i", Ast.Mem_read ("n", Ast.Var "j")))
  in
  match stmts with
  | [ Ir.Sload (_, "n", Ast.Var "j"); Ir.Sstore ("m", Ast.Var "i", Ast.Var _) ] -> ()
  | _ -> Alcotest.fail "store lowering"

(* --- CFG --------------------------------------------------------------- *)

let cfg_of src =
  let prog = parse src in
  Cfg.build prog.Ast.body

let test_cfg_straight_line () =
  let cfg = cfg_of "program t width 8; var a; a = 1; a = 2;" in
  check_int "statements" 2 (Cfg.statement_count cfg);
  check_int "no branches" 0 (Cfg.branch_count cfg);
  (* entry block jumps to halt *)
  match cfg.Cfg.blocks.(cfg.Cfg.entry).Cfg.term with
  | Cfg.Jump j -> (
      match cfg.Cfg.blocks.(j).Cfg.term with
      | Cfg.Halt -> ()
      | _ -> Alcotest.fail "jump should reach halt")
  | _ -> Alcotest.fail "expected jump terminator"

let test_cfg_if () =
  let cfg =
    cfg_of "program t width 8; var a; if (a == 0) { a = 1; } else { a = 2; } a = 3;"
  in
  check_int "one branch" 1 (Cfg.branch_count cfg);
  check_int "three assignments" 3 (Cfg.statement_count cfg)

let test_cfg_while () =
  let cfg = cfg_of "program t width 8; var a; while (a < 5) { a = a + 1; }" in
  check_int "one branch" 1 (Cfg.branch_count cfg);
  (* The condition block must be re-entered from the body. *)
  let cond_id =
    let found = ref (-1) in
    Array.iteri
      (fun i (b : Cfg.block) ->
        match b.Cfg.term with Cfg.Branch _ -> found := i | _ -> ())
      cfg.Cfg.blocks;
    !found
  in
  let body_jumps_back =
    Array.exists
      (fun (b : Cfg.block) ->
        match b.Cfg.term with Cfg.Jump j -> j = cond_id | _ -> false)
      cfg.Cfg.blocks
  in
  check_bool "loop back edge" true body_jumps_back

let test_cfg_rejects_partition () =
  let prog = parse "program t width 8; var a; a = 1; partition; a = 2;" in
  let raised =
    try ignore (Cfg.build prog.Ast.body); false with Invalid_argument _ -> true
  in
  check_bool "partition rejected inside CFG" true raised

(* --- hardware generation ---------------------------------------------- *)

let generate ?(share = false) src =
  let prog = parse src in
  let cfg = Cfg.build prog.Ast.body in
  let memories =
    List.map (fun (m : Ast.mem_decl) -> (m.Ast.mem_name, { Hwgen.size = m.Ast.mem_size }))
      prog.Ast.mems
  in
  let var_inits =
    List.map (fun (v : Ast.var_decl) -> (v.Ast.var_name, v.Ast.var_init)) prog.Ast.vars
  in
  let gen = if share then Hwgen.generate_shared else Hwgen.generate in
  gen ~name:prog.Ast.prog_name ~width:prog.Ast.prog_width ~memories ~var_inits cfg

let test_hwgen_valid_documents () =
  let r = generate "program t width 8; mem m[16]; var a; a = m[0] + 1; m[1] = a;" in
  Alcotest.(check (list string)) "datapath valid" [] (Dp.check r.Hwgen.datapath);
  Alcotest.(check (list string)) "fsm valid" [] (Fsm.check r.Hwgen.fsm)

let test_hwgen_state_per_ir_stmt () =
  (* load + assign + store + halt = 4 states; no branches. *)
  let r = generate "program t width 8; mem m[16]; var a; a = m[0] + 1; m[1] = a;" in
  check_int "states" 4 r.Hwgen.state_count

let test_hwgen_branch_state () =
  let r = generate "program t width 8; var a; if (a == 0) { a = 1; }" in
  (* branch state + assign + halt *)
  check_int "states" 3 r.Hwgen.state_count;
  check_int "one status" 1 (List.length r.Hwgen.datapath.Dp.statuses)

let test_hwgen_const_dedup () =
  let r = generate "program t width 8; var a; var b; a = 5 + 5; b = 5;" in
  let consts =
    List.filter (fun (op : Dp.operator) -> op.Dp.kind = Const)
      r.Hwgen.datapath.Dp.operators
  in
  check_int "single const 5" 1 (List.length consts)

let test_hwgen_addr_width () =
  check_int "4096 words" 12 (Hwgen.addr_width 4096);
  check_int "1 word" 1 (Hwgen.addr_width 1);
  check_int "2 words" 1 (Hwgen.addr_width 2);
  check_int "3 words" 2 (Hwgen.addr_width 3);
  check_int "1024 words" 10 (Hwgen.addr_width 1024)

let test_hwgen_mux_only_when_needed () =
  (* A variable written from one source needs no mux. *)
  let r = generate "program t width 8; var a; a = 1;" in
  check_bool "no mux" true
    (List.for_all (fun (op : Dp.operator) -> op.Dp.kind <> Mux)
       r.Hwgen.datapath.Dp.operators);
  (* Two distinct sources require one. *)
  let r2 = generate "program t width 8; var a; a = 1; a = a + 2;" in
  check_bool "mux present" true
    (List.exists (fun (op : Dp.operator) -> op.Dp.kind = Mux)
       r2.Hwgen.datapath.Dp.operators)

let test_hwgen_unused_memory_not_instantiated () =
  let r = generate "program t width 8; mem m[4]; mem unused[4]; var a; a = m[0];" in
  check_bool "unused memory skipped" true
    (List.for_all (fun (op : Dp.operator) -> op.Dp.id <> "sram_unused")
       r.Hwgen.datapath.Dp.operators)

let test_sharing_reduces_fus () =
  let src =
    "program t width 16; var a; var b; var c; a = a + b; b = b + c; c = c + a; a = a + 1;"
  in
  let plain = generate src in
  let shared = generate ~share:true src in
  check_bool "fewer or equal FUs" true (shared.Hwgen.fu_count <= plain.Hwgen.fu_count);
  let count_kind r kind =
    List.length
      (List.filter (fun (op : Dp.operator) -> op.Dp.kind = kind)
         r.Hwgen.datapath.Dp.operators)
  in
  check_int "one shared adder" 1 (count_kind shared (Bin Add));
  check_int "four dedicated adders" 4 (count_kind plain (Bin Add));
  Alcotest.(check (list string)) "shared datapath valid" [] (Dp.check shared.Hwgen.datapath)

let random_program_gen =
  QCheck2.Gen.(
    let small = int_range 0 7 in
    let stmt =
      oneofl
        [
          "a = a + 1;";
          "b = a * 2;";
          "m[0] = a;";
          "a = m[1];";
          "if (a > 3) { b = b + 1; } else { b = 0; }";
          "while (a < 5) { a = a + 1; }";
          "a = b - 1;";
          "m[a & 3] = b;";
        ]
    in
    list_size (int_range 1 8) stmt >>= fun stmts ->
    small >|= fun _ ->
    "program rnd width 8; mem m[4]; var a; var b;\n" ^ String.concat "\n" stmts)


(* --- optimizer ---------------------------------------------------------- *)

module Optimize = Compiler.Optimize

let opt_expr src =
  match (parse ("program t width 8; var a; var b; " ^ src)).Ast.body with
  | [ Ast.Assign (_, e) ] -> Optimize.expr ~width:8 e
  | _ -> Alcotest.fail "expected a single assignment"

let test_optimize_folding () =
  check_bool "constants fold" true (opt_expr "a = 2 + 3 * 4;" = Ast.Int 14);
  check_bool "folding wraps at width" true (opt_expr "a = 100 + 100;" = Ast.Int (-56));
  check_bool "division folds" true (opt_expr "a = 7 / 2;" = Ast.Int 3);
  check_bool "unary folds" true (opt_expr "a = ~0;" = Ast.Int (-1))

let test_optimize_identities () =
  check_bool "x + 0" true (opt_expr "a = b + 0;" = Ast.Var "b");
  check_bool "0 + x" true (opt_expr "a = 0 + b;" = Ast.Var "b");
  check_bool "x * 1" true (opt_expr "a = b * 1;" = Ast.Var "b");
  check_bool "x * 0" true (opt_expr "a = b * 0;" = Ast.Int 0);
  check_bool "x ^ 0" true (opt_expr "a = b ^ 0;" = Ast.Var "b");
  check_bool "x & 0" true (opt_expr "a = b & 0;" = Ast.Int 0);
  check_bool "x << 0" true (opt_expr "a = b << 0;" = Ast.Var "b")

let test_optimize_strength_reduction () =
  check_bool "mul by 8 becomes shift" true
    (opt_expr "a = b * 8;" = Ast.Binop (Ast.Shl, Ast.Var "b", Ast.Int 3));
  check_bool "mul by 3 stays" true
    (opt_expr "a = b * 3;" = Ast.Binop (Ast.Mul, Ast.Var "b", Ast.Int 3));
  (* Signed division truncates toward zero; >> floors. Must NOT reduce. *)
  check_bool "div by 4 not reduced" true
    (opt_expr "a = b / 4;" = Ast.Binop (Ast.Div, Ast.Var "b", Ast.Int 4))

let test_optimize_branch_folding () =
  let prog =
    Optimize.program
      (parse
         "program t width 8; var a; if (1 == 1) { a = 1; } else { a = 2; } \
          while (0 == 1) { a = 9; } assert (3 > 2);")
  in
  check_bool "only the live assignment remains" true
    (prog.Ast.body = [ Ast.Assign ("a", Ast.Int 1) ])

let test_optimize_reduces_fus () =
  let src = "program t width 16; var a; var b; a = b * 16 + (2 + 6); b = a * 1;" in
  let plain = Compile.compile (parse src) in
  let opt =
    Compile.compile ~options:{ Compile.share_operators = false; optimize = true; fold_branches = false }
      (parse src)
  in
  let fus c = (List.hd c.Compile.partitions).Compile.fu_count in
  check_bool "fewer FUs when optimized" true (fus opt < fus plain)

let prop_optimize_preserves_semantics =
  QCheck2.Test.make ~name:"optimizer preserves interpreter results" ~count:60
    random_program_gen
    (fun src ->
      let prog = parse src in
      let run p =
        let stores =
          List.map
            (fun (m : Ast.mem_decl) ->
              ( m.Ast.mem_name,
                Operators.Memory.of_list ~width:p.Ast.prog_width [ 1; 2; 3; 4 ] ))
            p.Ast.mems
        in
        let vars, _ =
          Lang.Interp.run ~memories:(fun n -> List.assoc n stores) p
        in
        (vars, List.map (fun (_, m) -> Operators.Memory.to_list m) stores)
      in
      run prog = run (Optimize.program prog))

(* --- branch folding ------------------------------------------------------ *)

let fold_opts =
  { Compile.share_operators = false; optimize = false; fold_branches = true }

let test_fold_reduces_states () =
  (* if whose condition reads b while the preceding statement writes a:
     the test folds into the assignment's state. *)
  let src =
    "program t width 8; var a; var b; a = 1; if (b == 0) { b = 2; } a = 3;"
  in
  let plain = Compile.compile (parse src) in
  let folded = Compile.compile ~options:fold_opts (parse src) in
  let states c = (List.hd c.Compile.partitions).Compile.state_count in
  check_bool "fewer states when folded" true (states folded < states plain)

let test_fold_unsafe_not_folded () =
  (* The statement before the branch writes the condition's operand:
     folding would read a stale value, so it must not happen. *)
  let src = "program t width 8; var a; a = 1; if (a == 1) { a = 2; }" in
  let plain = Compile.compile (parse src) in
  let folded = Compile.compile ~options:fold_opts (parse src) in
  let states c = (List.hd c.Compile.partitions).Compile.state_count in
  check_int "same states (no fold possible)" (states plain) (states folded)

let test_fold_functionally_equivalent () =
  let img = Workloads.Fdct.make_image ~width_px:8 ~height_px:8 ~seed:77 in
  let outcome =
    Testinfra.Verify.run_source ~options:fold_opts ~inits:[ ("input", img) ]
      (Workloads.Kernels.edge_detect_source ~width_px:8 ~height_px:8
         ~threshold:30)
  in
  check_bool "folded design verifies" true outcome.Testinfra.Verify.passed

let test_fold_saves_cycles () =
  (* A memory store directly precedes the branch test: the store writes no
     scalar, so the test folds into its state — one cycle per iteration. *)
  let src =
    "program t width 16; mem m[16]; var i; var x; var flag;\n\
     flag = 1;\n\
     for (i = 0; i < 16; i = i + 1) {\n\
       m[i] = x;\n\
       if (flag == 1) { x = x + 2; }\n\
     }"
  in
  let cycles options =
    let outcome = Testinfra.Verify.run_source ~options ~inits:[] src in
    check_bool "verifies" true outcome.Testinfra.Verify.passed;
    outcome.Testinfra.Verify.hw_run.Testinfra.Simulate.total_cycles
  in
  let folded = cycles fold_opts and plain = cycles Compile.default_options in
  check_bool "folded runs in fewer cycles" true (folded < plain);
  (* Exactly one cycle saved per loop iteration. *)
  check_int "sixteen cycles saved" 16 (plain - folded)

let prop_fold_matches_golden =
  QCheck2.Test.make ~name:"branch folding preserves semantics" ~count:40
    random_program_gen
    (fun src ->
      (Testinfra.Verify.run_source ~options:fold_opts
         ~inits:[ ("m", [ 1; 2; 3; 4 ]) ] src)
        .Testinfra.Verify.passed)

(* --- driver ------------------------------------------------------------ *)

let test_compile_single_partition () =
  let c = Compile.compile (parse "program t width 8; var a; a = 1;") in
  check_int "one partition" 1 (List.length c.Compile.partitions);
  check_int "one rtg configuration" 1 (Rtg.configuration_count c.Compile.rtg)

let test_compile_two_partitions () =
  let c =
    Compile.compile
      (parse "program t width 8; mem m[4]; var a; a = 1; m[0] = a; partition; m[1] = 2;")
  in
  check_int "two partitions" 2 (List.length c.Compile.partitions);
  Alcotest.(check (list string)) "rtg order" [ "t_p1"; "t_p2" ]
    (Rtg.execution_order c.Compile.rtg);
  Alcotest.(check string) "datapath ref" "t_p1_dp" (Compile.datapath_ref c 0);
  Alcotest.(check string) "fsm ref" "t_p2_fsm" (Compile.fsm_ref c 1)

let test_partition_flow_rejected () =
  let prog =
    parse "program t width 8; mem m[4]; var a; a = 5; m[0] = a; partition; m[1] = a;"
  in
  check_bool "flow violation detected" true (Compile.check_partition_flow prog <> []);
  let raised = try ignore (Compile.compile prog); false with Compile.Error _ -> true in
  check_bool "compile raises" true raised

let test_partition_flow_redefine_ok () =
  (* Partition 2 assigns [a] before reading it, so the flow is legal. *)
  let prog =
    parse
      "program t width 8; mem m[4]; var a; a = 5; m[0] = a; partition; a = 1; m[1] = a;"
  in
  Alcotest.(check (list string)) "no violation" [] (Compile.check_partition_flow prog);
  let c = Compile.compile prog in
  check_int "compiles to two partitions" 2 (List.length c.Compile.partitions)

let test_partition_flow_loop_counter_ok () =
  (* The for-loop init assigns before use — the FDCT2 pattern. *)
  let prog =
    parse
      "program t width 8; mem m[8]; var i; for (i = 0; i < 4; i = i + 1) { m[i] = i; } \
       partition; for (i = 0; i < 4; i = i + 1) { m[i + 4] = i; }"
  in
  Alcotest.(check (list string)) "no violation" [] (Compile.check_partition_flow prog)

let test_partition_flow_branch_defined () =
  (* Defined on only one branch of an if -> still a suspect use after. *)
  let prog =
    parse
      "program t width 8; mem m[4]; var a; var b; a = 1; m[0] = a; b = a; partition; \
       if (m[0] == 1) { a = 1; } else { b = 2; } m[1] = a;"
  in
  check_bool "partial definition flagged" true
    (Compile.check_partition_flow prog <> [])

(* Property: compiled FSMs always have exactly one done state reachable,
   and every datapath/FSM pair passes validation, over random programs. *)
let prop_random_programs_compile =
  QCheck2.Test.make ~name:"random programs compile to valid documents" ~count:60
    random_program_gen
    (fun src ->
      let c = Compile.compile (parse src) in
      List.for_all
        (fun (p : Compile.partition) ->
          Dp.check p.Compile.datapath = [] && Fsm.check p.Compile.fsm = [])
        c.Compile.partitions)

let suite =
  [
    ("lowering hoists reads", `Quick, test_lower_hoists_reads);
    ("lowering nested read", `Quick, test_lower_nested_read_address);
    ("lowering store", `Quick, test_lower_store);
    ("cfg straight line", `Quick, test_cfg_straight_line);
    ("cfg if", `Quick, test_cfg_if);
    ("cfg while", `Quick, test_cfg_while);
    ("cfg rejects partition", `Quick, test_cfg_rejects_partition);
    ("hwgen valid documents", `Quick, test_hwgen_valid_documents);
    ("hwgen one state per IR statement", `Quick, test_hwgen_state_per_ir_stmt);
    ("hwgen branch state", `Quick, test_hwgen_branch_state);
    ("hwgen const dedup", `Quick, test_hwgen_const_dedup);
    ("hwgen addr width", `Quick, test_hwgen_addr_width);
    ("hwgen mux only when needed", `Quick, test_hwgen_mux_only_when_needed);
    ("hwgen skips unused memories", `Quick, test_hwgen_unused_memory_not_instantiated);
    ("sharing reduces FUs", `Quick, test_sharing_reduces_fus);
    ("optimize folding", `Quick, test_optimize_folding);
    ("optimize identities", `Quick, test_optimize_identities);
    ("optimize strength reduction", `Quick, test_optimize_strength_reduction);
    ("optimize branch folding", `Quick, test_optimize_branch_folding);
    ("optimize reduces FUs", `Quick, test_optimize_reduces_fus);
    QCheck_alcotest.to_alcotest prop_optimize_preserves_semantics;
    ("fold reduces states", `Quick, test_fold_reduces_states);
    ("fold unsafe not folded", `Quick, test_fold_unsafe_not_folded);
    ("fold functionally equivalent", `Quick, test_fold_functionally_equivalent);
    ("fold saves cycles", `Quick, test_fold_saves_cycles);
    QCheck_alcotest.to_alcotest prop_fold_matches_golden;
    ("compile single partition", `Quick, test_compile_single_partition);
    ("compile two partitions", `Quick, test_compile_two_partitions);
    ("partition flow rejected", `Quick, test_partition_flow_rejected);
    ("partition flow redefine ok", `Quick, test_partition_flow_redefine_ok);
    ("partition flow loop counter ok", `Quick, test_partition_flow_loop_counter_ok);
    ("partition flow branch defined", `Quick, test_partition_flow_branch_defined);
    QCheck_alcotest.to_alcotest prop_random_programs_compile;
  ]
