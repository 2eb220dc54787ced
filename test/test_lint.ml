(* Every documented diagnostic code fires at least once here: the
   structural families (DP001-DP012, FSM001-FSM011, RTG001-RTG007)
   through the migrated check_diags, the whole-design analyses
   (DP013-DP015, FSM012-FSM014), cross-document linking (XL001-XL009),
   and the tolerant loaders (XML001-XML003, BND001). *)

module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Compile = Compiler.Compile

let ep = Dp.endpoint_of_string

let op ?(params = []) id kind width = { Dp.id; kind; width; params }

let net ?(sinks = []) id w source =
  { Dp.net_id = id; net_width = w; source; sinks = List.map ep sinks }

let from s = Dp.From_op (ep s)

let dp ?(operators = []) ?(controls = []) ?(statuses = []) ?(nets = []) name =
  { Dp.dp_name = name; operators; controls; statuses; nets }

let ctl name w = { Dp.ctl_name = name; ctl_width = w }
let status name src = { Dp.st_name = name; st_source = ep src }

let io ?(default = 0) name w = { Fsm.io_name = name; io_width = w; default }
let tr ?(guard = Guard.True) target = { Fsm.guard; target }

let state ?(is_done = false) ?(settings = []) ?(transitions = []) sname =
  { Fsm.sname; is_done; settings; transitions }

let fsm ?(inputs = []) ?(outputs = []) ?(name = "f") ~initial states =
  { Fsm.fsm_name = name; inputs; outputs; initial; states }

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diag.code) ds)

let check_code what c ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got %s)" what c (String.concat "," (codes ds)))
    true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = c) ds)

let severity_of c ds =
  (List.find (fun (d : Diag.t) -> d.Diag.code = c) ds).Diag.severity

(* --- structural datapath codes ---------------------------------------- *)

let const ?(value = 1) id w = op id Const w ~params:[ ("value", string_of_int value) ]

let test_dp_structural_codes () =
  let c = check_code in
  c "dup operator" "DP001"
    (Dp.check_diags (dp "d" ~operators:[ const "a" 1; const "a" 1 ]));
  c "dup net" "DP002"
    (Dp.check_diags
       (dp "d" ~operators:[ const "c" 1 ]
          ~nets:[ net "n" 1 (from "c.y"); net "n" 1 (from "c.y") ]));
  c "dup control" "DP003"
    (Dp.check_diags (dp "d" ~controls:[ ctl "e" 1; ctl "e" 1 ]));
  c "dup status" "DP004"
    (Dp.check_diags
       (dp "d" ~operators:[ const "c" 1 ]
          ~statuses:[ status "s" "c.y"; status "s" "c.y" ]));
  c "missing parameter" "DP005" (Dp.check_diags (dp "d" ~operators:[ op "x" Const 1 ]));
  c "ghost instance" "DP006"
    (Dp.check_diags (dp "d" ~nets:[ net "n" 1 (from "ghost.y") ]));
  c "no such port" "DP007"
    (Dp.check_diags
       (dp "d" ~operators:[ const "c" 1 ] ~nets:[ net "n" 1 (from "c.nope") ]));
  c "ghost control" "DP008"
    (Dp.check_diags (dp "d" ~nets:[ net "n" 1 (Dp.From_control "nope") ]));
  c "width mismatch" "DP009"
    (Dp.check_diags
       (dp "d" ~operators:[ const "c" 8 ] ~nets:[ net "n" 4 (from "c.y") ]));
  c "input as source" "DP010"
    (Dp.check_diags
       (dp "d" ~operators:[ op "r" Reg 8 ] ~nets:[ net "n" 8 (from "r.d") ]));
  c "unconnected input" "DP011"
    (Dp.check_diags (dp "d" ~operators:[ op "g" (Un Not) 1 ]));
  c "two drivers" "DP012"
    (Dp.check_diags
       (dp "d"
          ~operators:[ const "c1" 1; const "c2" 1; op "g" (Un Not) 1 ]
          ~nets:
            [
              net "n1" 1 (from "c1.y") ~sinks:[ "g.a" ];
              net "n2" 1 (from "c2.y") ~sinks:[ "g.a" ];
            ]))

(* --- structural FSM codes ---------------------------------------------- *)

let test_fsm_structural_codes () =
  let c = check_code in
  c "dup state" "FSM001"
    (Fsm.check_diags (fsm ~initial:"s" [ state "s" ~is_done:true; state "s" ]));
  c "dup input" "FSM002"
    (Fsm.check_diags
       (fsm ~inputs:[ io "x" 1; io "x" 1 ] ~initial:"s" [ state "s" ~is_done:true ]));
  c "dup output" "FSM003"
    (Fsm.check_diags
       (fsm ~outputs:[ io "o" 1; io "o" 1 ] ~initial:"s" [ state "s" ~is_done:true ]));
  c "no states" "FSM004" (Fsm.check_diags (fsm ~initial:"s" []));
  c "bad initial" "FSM005"
    (Fsm.check_diags (fsm ~initial:"zz" [ state "s" ~is_done:true ]));
  c "undeclared output" "FSM006"
    (Fsm.check_diags
       (fsm ~initial:"s" [ state "s" ~is_done:true ~settings:[ ("o", 1) ] ]));
  c "value too wide" "FSM007"
    (Fsm.check_diags
       (fsm ~outputs:[ io "o" 1 ] ~initial:"s"
          [ state "s" ~is_done:true ~settings:[ ("o", 2) ] ]));
  c "output set twice" "FSM008"
    (Fsm.check_diags
       (fsm ~outputs:[ io "o" 1 ] ~initial:"s"
          [ state "s" ~is_done:true ~settings:[ ("o", 1); ("o", 1) ] ]));
  c "ghost target" "FSM009"
    (Fsm.check_diags
       (fsm ~initial:"s" [ state "s" ~is_done:true ~transitions:[ tr "zz" ] ]));
  c "guard on undeclared input" "FSM010"
    (Fsm.check_diags
       (fsm ~initial:"s"
          [
            state "s" ~is_done:true
              ~transitions:[ tr "s" ~guard:(Guard.parse "x == 1") ];
          ]));
  c "no done state reachable" "FSM011"
    (Fsm.check_diags
       (fsm ~initial:"s" [ state "s"; state "halt" ~is_done:true ]))

(* --- structural RTG codes ---------------------------------------------- *)

let cfg name = { Rtg.cfg_name = name; datapath_ref = name ^ "_dp"; fsm_ref = name ^ "_fsm" }
let edge src dst = { Rtg.src; dst }

let rtg ?(transitions = []) ~initial cfgs =
  { Rtg.rtg_name = "r"; initial; configurations = cfgs; transitions }

let test_rtg_codes () =
  let c = check_code in
  c "dup configuration" "RTG001"
    (Rtg.check_diags (rtg ~initial:"a" [ cfg "a"; cfg "a" ]));
  c "no configurations" "RTG002" (Rtg.check_diags (rtg ~initial:"a" []));
  c "bad initial" "RTG003" (Rtg.check_diags (rtg ~initial:"z" [ cfg "a" ]));
  c "several outgoing" "RTG004"
    (Rtg.check_diags
       (rtg ~initial:"a" [ cfg "a"; cfg "b" ]
          ~transitions:[ edge "a" "b"; edge "a" "b" ]));
  c "unknown endpoint" "RTG005"
    (Rtg.check_diags
       (rtg ~initial:"a" [ cfg "a" ] ~transitions:[ edge "a" "ghost" ]));
  c "cycle" "RTG006"
    (Rtg.check_diags
       (rtg ~initial:"a" [ cfg "a"; cfg "b" ]
          ~transitions:[ edge "a" "b"; edge "b" "a" ]));
  c "unreachable" "RTG007"
    (Rtg.check_diags (rtg ~initial:"a" [ cfg "a"; cfg "b" ]))

(* --- deep datapath analyses -------------------------------------------- *)

(* A structurally clean core: const -> reg (sequential seed). *)
let clean_dp =
  dp "clean"
    ~operators:[ const "c" 8; const ~value:1 "e" 1; op "r" Reg 8 ]
    ~nets:
      [
        net "n1" 8 (from "c.y") ~sinks:[ "r.d" ];
        net "n2" 1 (from "e.y") ~sinks:[ "r.en" ];
      ]

let test_clean_datapath () =
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Lint.run_datapath clean_dp))

let test_combinational_loop () =
  (* Two inverters feeding each other: a certain oscillation. *)
  let d =
    dp "loop"
      ~operators:[ op "g1" (Un Not) 1; op "g2" (Un Not) 1 ]
      ~nets:
        [
          net "a" 1 (from "g1.y") ~sinks:[ "g2.a" ];
          net "b" 1 (from "g2.y") ~sinks:[ "g1.a" ];
        ]
  in
  let ds = Lint.run_datapath d in
  check_code "inverter loop" "DP013" ds;
  Alcotest.(check bool) "loop is an error" true (severity_of "DP013" ds = Diag.Error);
  Alcotest.(check bool) "lint sees errors" true (Lint.has_errors ds)

let test_mux_broken_loop_warns () =
  (* The operator-sharing shape: a pooled unit looping back through a mux
     whose select is control-driven. Structurally cyclic, dynamically
     routed — a warning, not an error. *)
  let d =
    dp "shared"
      ~operators:[ op "g" (Un Not) 8; op "m" Mux 8; const "c" 8 ]
      ~controls:[ ctl "sel" 1 ]
      ~nets:
        [
          net "n1" 8 (from "g.y") ~sinks:[ "m.in0" ];
          net "n2" 8 (from "m.y") ~sinks:[ "g.a" ];
          net "n3" 8 (from "c.y") ~sinks:[ "m.in1" ];
          net "n4" 1 (Dp.From_control "sel") ~sinks:[ "m.sel" ];
        ]
  in
  let ds = Lint.run_datapath d in
  check_code "mux loop" "DP013" ds;
  Alcotest.(check bool) "mux loop is a warning" true
    (severity_of "DP013" ds = Diag.Warning);
  Alcotest.(check bool) "no errors" false (Lint.has_errors ds)

let test_dead_operator () =
  let d =
    dp "dead"
      ~operators:(clean_dp.Dp.operators @ [ op "g" (Un Not) 8 ])
      ~nets:(clean_dp.Dp.nets @ [ net "n3" 8 (from "c.y") ~sinks:[ "g.a" ] ])
  in
  let ds = Lint.run_datapath d in
  check_code "inverter feeding nothing" "DP014" ds;
  Alcotest.(check bool) "warning only" false (Lint.has_errors ds)

let test_unused_control () =
  let d = dp "u" ~controls:[ ctl "ghost_en" 1 ] in
  check_code "declared but unused control" "DP015" (Lint.run_datapath d)

(* --- deep FSM analyses -------------------------------------------------- *)

let test_fsm_unreachable_state () =
  let f =
    fsm ~initial:"s0"
      [
        state "s0" ~transitions:[ tr "halt" ];
        state "orphan";
        state "halt" ~is_done:true;
      ]
  in
  check_code "orphan state" "FSM012" (Lint.run_fsm f)

let test_fsm_unsat_guard () =
  let f =
    fsm
      ~inputs:[ io "x" 1 ]
      ~initial:"s0"
      [
        state "s0" ~transitions:[ tr "halt" ~guard:(Guard.parse "x < 0"); tr "halt" ];
        state "halt" ~is_done:true;
      ]
  in
  check_code "x < 0 over unsigned x" "FSM013" (Lint.run_fsm f)

let test_fsm_shadowed_transition () =
  let f =
    fsm
      ~inputs:[ io "x" 1 ]
      ~initial:"s0"
      [
        state "s0"
          ~transitions:
            [
              tr "halt" ~guard:(Guard.parse "x == 1");
              tr "other" ~guard:(Guard.parse "x >= 1");
              tr "halt";
            ];
        state "other" ~transitions:[ tr "halt" ];
        state "halt" ~is_done:true;
      ]
  in
  check_code "x >= 1 shadowed by x == 1" "FSM014" (Lint.run_fsm f)

(* --- cross-document linking --------------------------------------------- *)

(* A linked clean pair: control-enabled register, status read back. *)
let linked_dp =
  dp "gcd_dp"
    ~operators:[ const "c" 8; op "r" Reg 8 ]
    ~controls:[ ctl "r_en" 1 ]
    ~statuses:[ status "done_f" "r.q" ]
    ~nets:
      [
        net "n1" 8 (from "c.y") ~sinks:[ "r.d" ];
        net "n2" 1 (Dp.From_control "r_en") ~sinks:[ "r.en" ];
      ]

let linked_fsm =
  fsm ~name:"gcd_fsm"
    ~inputs:[ io "done_f" 8 ]
    ~outputs:[ io "r_en" 1 ]
    ~initial:"s0"
    [
      state "s0" ~settings:[ ("r_en", 1) ]
        ~transitions:[ tr "halt" ~guard:(Guard.parse "done_f == 0") ];
      state "halt" ~is_done:true;
    ]

let test_linked_pair_clean () =
  Alcotest.(check (list string)) "no diagnostics" []
    (codes (Lint.run_configuration linked_dp linked_fsm))

let test_link_codes () =
  let c = check_code in
  (* XL002: output with no control. *)
  c "extra fsm output" "XL002"
    (Lint.link_configuration linked_dp
       { linked_fsm with Fsm.outputs = io "ghost" 1 :: linked_fsm.Fsm.outputs });
  (* XL003: control no output drives. *)
  c "undriven control" "XL003"
    (Lint.link_configuration
       { linked_dp with Dp.controls = ctl "extra" 1 :: linked_dp.Dp.controls }
       linked_fsm);
  (* XL004: control width mismatch. *)
  c "control width" "XL004"
    (Lint.link_configuration linked_dp
       { linked_fsm with Fsm.outputs = [ io "r_en" 2 ] });
  (* XL005: input with no status. *)
  c "extra fsm input" "XL005"
    (Lint.link_configuration linked_dp
       { linked_fsm with Fsm.inputs = io "ghost" 1 :: linked_fsm.Fsm.inputs });
  (* XL006: status never read. *)
  c "unread status" "XL006"
    (Lint.link_configuration linked_dp { linked_fsm with Fsm.inputs = [] });
  (* XL007: status width mismatch. *)
  c "status width" "XL007"
    (Lint.link_configuration linked_dp
       { linked_fsm with Fsm.inputs = [ io "done_f" 3 ] });
  (* XL008: asserted control unconnected in the datapath. *)
  c "asserted but unconnected" "XL008"
    (Lint.link_configuration
       { linked_dp with Dp.nets = [ List.hd linked_dp.Dp.nets ] }
       linked_fsm);
  (* XL009: no done state at all. *)
  c "no done state" "XL009"
    (Lint.link_configuration linked_dp
       {
         linked_fsm with
         Fsm.states =
           List.map (fun s -> { s with Fsm.is_done = false }) linked_fsm.Fsm.states;
       })

let test_bundle_missing_doc () =
  let r = Rtg.singleton ~name:"gcd" ~datapath_ref:"gcd_dp" ~fsm_ref:"gcd_fsm" in
  let ds = Lint.run_bundle ~rtg:r ~datapaths:[] ~fsms:[ ("gcd_fsm", linked_fsm) ] () in
  check_code "unresolved datapath ref" "XL001" ds;
  Alcotest.(check bool) "missing document is an error" true (Lint.has_errors ds)

let test_bundle_width_mismatch () =
  (* The acceptance scenario: an FSM/datapath control width mismatch in a
     full bundle is pinned to its configuration. *)
  let r = Rtg.singleton ~name:"gcd" ~datapath_ref:"gcd_dp" ~fsm_ref:"gcd_fsm" in
  let bad_fsm = { linked_fsm with Fsm.outputs = [ io "r_en" 2 ] } in
  let ds =
    Lint.run_bundle ~rtg:r
      ~datapaths:[ ("gcd_dp", linked_dp) ]
      ~fsms:[ ("gcd_fsm", bad_fsm) ] ()
  in
  check_code "bundle-level width mismatch" "XL004" ds;
  Alcotest.(check bool) "mismatch is an error" true (Lint.has_errors ds);
  Alcotest.(check bool) "location names the configuration" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.code = "XL004" && d.Diag.location = "configuration gcd")
       ds)

(* --- tolerant loaders ---------------------------------------------------- *)

let in_temp_dir f =
  let dir = Filename.temp_file "lint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let test_loader_codes () =
  in_temp_dir (fun dir ->
      let file name s =
        let p = Filename.concat dir name in
        write p s;
        p
      in
      check_code "unclosed tag" "XML001"
        (Lint.run_file (file "broken.xml" "<datapath name=\"d\""));
      check_code "unknown dialect" "XML002"
        (Lint.run_file (file "alien.xml" "<spaceship name=\"x\"/>"));
      check_code "malformed endpoint" "XML003"
        (Lint.run_file
           (file "badnet.xml"
              "<datapath name=\"d\"><operators/>\
               <nets><net id=\"n\" width=\"1\" from=\"nodot\"/></nets>\
               </datapath>")));
  in_temp_dir (fun dir ->
      check_code "empty dir" "BND001" (Lint.run_dir dir);
      write (Filename.concat dir "a_rtg.xml") "<rtg name=\"a\" initial=\"a\"/>";
      write (Filename.concat dir "b_rtg.xml") "<rtg name=\"b\" initial=\"b\"/>";
      check_code "two rtgs" "BND001" (Lint.run_dir dir))

(* Operator kinds and parameters are resolved when a document loads: a
   kind outside the catalogue and a malformed parameter are both DP005,
   never a schema error or an exception. *)
let test_operator_load_codes () =
  let operator attrs =
    Printf.sprintf
      "<datapath name=\"d\"><operators><operator id=\"x\" %s/></operators>\
       <nets/></datapath>"
      attrs
  in
  in_temp_dir (fun dir ->
      List.iteri
        (fun i (what, attrs) ->
          let path = Filename.concat dir (Printf.sprintf "op%d.xml" i) in
          write path (operator attrs);
          let ds = Lint.run_file path in
          check_code what "DP005" ds;
          Alcotest.(check bool) (what ^ ": no schema error") false
            (List.mem "XML002" (codes ds)))
        [
          ("unknown kind", {|kind="bogus" width="8"|});
          ("non-integer init", {|kind="reg" width="8" init="x"|});
          ("non-integer step", {|kind="counter" width="8" step="1.5"|});
          ("non-integer inputs", {|kind="mux" width="8" inputs="two"|});
          ("memory without size", {|kind="sram" width="8" memory="m" addr-width="3"|});
          ("memory size beyond its addresses",
           {|kind="rom" width="8" memory="m" addr-width="3" size="9"|});
          ("empty memory", {|kind="sram" width="8" memory="m" addr-width="3" size="0"|});
          ("unknown check action", {|kind="check" width="8" value="1" action="halt"|});
        ])

let test_run_dir_clean_bundle () =
  in_temp_dir (fun dir ->
      let r = Rtg.singleton ~name:"gcd" ~datapath_ref:"gcd_dp" ~fsm_ref:"gcd_fsm" in
      Rtg.save (Filename.concat dir "gcd_rtg.xml") r;
      Dp.save (Filename.concat dir "gcd_dp.xml") linked_dp;
      Fsm.save (Filename.concat dir "gcd_fsm.xml") linked_fsm;
      Alcotest.(check (list string)) "round-tripped bundle is clean" []
        (codes (Lint.run_dir dir)))

(* --- the compile gate ----------------------------------------------------- *)

let test_compiled_designs_lint_clean () =
  List.iter
    (fun (case : Testinfra.Suite.case) ->
      List.iter
        (fun (vname, options) ->
          let compiled =
            Compile.compile ~options (Lang.Parser.parse_string case.Testinfra.Suite.source)
          in
          let errors = Diag.errors (Compile.lint compiled) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s error-free" case.Testinfra.Suite.case_name vname)
            [] (codes errors))
        Testinfra.Suite.default_variants)
    (Testinfra.Suite.builtin_cases ())

let prop_generated_designs_lint_clean =
  QCheck2.Test.make ~name:"compiled random programs are lint-clean" ~count:60
    Test_compiler.random_program_gen (fun src ->
      let prog = Lang.Parser.parse_string src in
      List.for_all
        (fun (_, options) ->
          let compiled = Compile.compile ~options prog in
          Diag.errors (Compile.lint compiled) = [])
        Testinfra.Suite.default_variants)

(* --- rendering ------------------------------------------------------------ *)

let test_render_and_json () =
  let ds =
    [
      Diag.error ~code:"DP013" ~loc:"operator g1" ~hint:"break it" "loop";
      Diag.warning ~code:"DP015" ~loc:"" "unused";
    ]
  in
  let rendered = Diag.render ds in
  Alcotest.(check bool) "summary line" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains rendered "1 error(s), 1 warning(s)"
     && contains rendered "error[DP013]" && contains rendered "hint: break it");
  let json = Diag.to_json ds in
  Alcotest.(check bool) "json has codes" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains json "\"DP013\"" && contains json "\"warning\"");
  Alcotest.(check string) "empty render" "" (Diag.render []);
  Alcotest.(check string) "empty json" "[]\n" (Diag.to_json [])

(* --- pooled suite runs ----------------------------------------------------- *)

let test_suite_pooled_deterministic () =
  let cases =
    [
      {
        Testinfra.Suite.case_name = "ok";
        source = "program ok width 8; mem m[4]; var a; a = 3; m[0] = a;";
        inits = [];
      };
      { Testinfra.Suite.case_name = "broken"; source = "program broken width"; inits = [] };
    ]
  in
  let variants = [ List.hd Testinfra.Suite.default_variants ] in
  let strip (results, summary) =
    ( List.map
        (fun (r : Testinfra.Suite.case_result) ->
          ( r.Testinfra.Suite.case_name_r,
            List.map
              (fun (v, verdict) -> (v, Testinfra.Suite.verdict_passed verdict))
              r.Testinfra.Suite.outcomes ))
        results,
      summary.Testinfra.Suite.failures )
  in
  let seq = strip (Testinfra.Suite.run ~variants ~jobs:1 cases) in
  let par = strip (Testinfra.Suite.run ~variants ~jobs:3 cases) in
  Alcotest.(check bool) "identical report for any job count" true (seq = par);
  Alcotest.(check bool) "parse failure reported" true
    (match snd seq with [ ("broken", v) ] -> String.length v > 0 | _ -> false)

let suite =
  [
    Alcotest.test_case "datapath structural codes" `Quick test_dp_structural_codes;
    Alcotest.test_case "fsm structural codes" `Quick test_fsm_structural_codes;
    Alcotest.test_case "rtg codes" `Quick test_rtg_codes;
    Alcotest.test_case "clean datapath" `Quick test_clean_datapath;
    Alcotest.test_case "combinational loop" `Quick test_combinational_loop;
    Alcotest.test_case "mux-broken loop warns" `Quick test_mux_broken_loop_warns;
    Alcotest.test_case "dead operator" `Quick test_dead_operator;
    Alcotest.test_case "unused control" `Quick test_unused_control;
    Alcotest.test_case "fsm unreachable state" `Quick test_fsm_unreachable_state;
    Alcotest.test_case "fsm unsatisfiable guard" `Quick test_fsm_unsat_guard;
    Alcotest.test_case "fsm shadowed transition" `Quick test_fsm_shadowed_transition;
    Alcotest.test_case "linked pair clean" `Quick test_linked_pair_clean;
    Alcotest.test_case "cross-link codes" `Quick test_link_codes;
    Alcotest.test_case "bundle missing document" `Quick test_bundle_missing_doc;
    Alcotest.test_case "bundle width mismatch" `Quick test_bundle_width_mismatch;
    Alcotest.test_case "loader codes" `Quick test_loader_codes;
    Alcotest.test_case "operator load codes" `Quick test_operator_load_codes;
    Alcotest.test_case "run_dir on clean bundle" `Quick test_run_dir_clean_bundle;
    Alcotest.test_case "workload kernels lint-clean" `Quick test_compiled_designs_lint_clean;
    QCheck_alcotest.to_alcotest prop_generated_designs_lint_clean;
    Alcotest.test_case "render and json" `Quick test_render_and_json;
    Alcotest.test_case "pooled suite deterministic" `Quick test_suite_pooled_deterministic;
  ]
