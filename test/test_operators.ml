(* Tests for the operator library: memory storage, port specs, models. *)

open Sim
module Memory = Operators.Memory
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind
module Models = Operators.Models

let bv ~width v = Bitvec.create ~width v
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- memory ---------------------------------------------------------- *)

let test_memory_basics () =
  let m = Memory.create ~name:"m" ~width:8 16 in
  check_int "size" 16 (Memory.size m);
  check_int "width" 8 (Memory.width m);
  Memory.write m 3 (bv ~width:8 200);
  check_int "read back" 200 (Bitvec.to_int (Memory.read m 3));
  check_int "other cells zero" 0 (Bitvec.to_int (Memory.read m 4))

let test_memory_out_of_range () =
  let m = Memory.create ~width:8 4 in
  check_int "oob read is 0" 0 (Bitvec.to_int (Memory.read m 9));
  Memory.write m 100 (bv ~width:8 1);
  check_int "two accesses counted" 2 (Memory.out_of_range_accesses m)

let test_memory_load_diff () =
  let a = Memory.of_list ~width:8 [ 1; 2; 3; 4 ] in
  let b = Memory.copy a in
  check_bool "copies equal" true (Memory.equal a b);
  Memory.write b 2 (bv ~width:8 9);
  (match Memory.diff a b with
  | [ (2, 3, 9) ] -> ()
  | _ -> Alcotest.fail "expected exactly one diff at address 2");
  Memory.load a ~offset:1 [ 7; 8 ];
  check_int "offset load" 7 (Bitvec.to_int (Memory.read a 1));
  check_int "offset load 2" 8 (Bitvec.to_int (Memory.read a 2))

let test_memory_clear () =
  let m = Memory.of_list ~width:8 [ 5; 6 ] in
  Memory.clear m;
  check_bool "cleared" true (List.for_all (( = ) 0) (Memory.to_list m))

let test_memory_width_mismatch () =
  let m = Memory.create ~width:8 4 in
  let raised =
    try Memory.write m 0 (bv ~width:16 1); false
    with Invalid_argument _ -> true
  in
  check_bool "width mismatch rejected" true raised

(* --- specs ----------------------------------------------------------- *)

let test_spec_binary () =
  let spec = Opspec.lookup ~kind:(Bin Add) ~width:16 [] in
  check_bool "not sequential" false spec.Opspec.sequential;
  check_int "three ports" 3 (List.length spec.Opspec.ports);
  let y = List.find (fun p -> p.Opspec.port_name = "y") spec.Opspec.ports in
  check_int "y width" 16 y.Opspec.port_width

let test_spec_comparison_output_is_bit () =
  let spec = Opspec.lookup ~kind:(Cmp Lts) ~width:16 [] in
  let y = List.find (fun p -> p.Opspec.port_name = "y") spec.Opspec.ports in
  check_int "y width 1" 1 y.Opspec.port_width

let test_spec_mux () =
  let spec = Opspec.lookup ~kind:Mux ~width:8 [ ("inputs", "5") ] in
  check_int "5 inputs + sel + y" 7 (List.length spec.Opspec.ports);
  let sel = List.find (fun p -> p.Opspec.port_name = "sel") spec.Opspec.ports in
  check_int "sel width for 5 inputs" 3 sel.Opspec.port_width

let test_sel_width () =
  check_int "2 inputs" 1 (Opspec.sel_width 2);
  check_int "3 inputs" 2 (Opspec.sel_width 3);
  check_int "4 inputs" 2 (Opspec.sel_width 4);
  check_int "5 inputs" 3 (Opspec.sel_width 5);
  check_int "degenerate" 1 (Opspec.sel_width 1)

let test_spec_errors () =
  let fails f = try ignore (f ()); false with Opspec.Spec_error _ -> true in
  check_bool "const needs value" true
    (fails (fun () -> Opspec.lookup ~kind:Const ~width:8 []));
  check_bool "sram needs memory" true
    (fails (fun () -> Opspec.lookup ~kind:Sram ~width:8 [ ("addr-width", "4"); ("size", "16") ]));
  check_bool "sram needs size" true
    (fails (fun () -> Opspec.lookup ~kind:Sram ~width:8 [ ("memory", "m"); ("addr-width", "4") ]));
  check_bool "size within the address space" true
    (fails (fun () ->
         Opspec.lookup ~kind:Rom ~width:8
           [ ("memory", "m"); ("addr-width", "4"); ("size", "17") ]));
  check_bool "non-integer init" true
    (fails (fun () -> Opspec.lookup ~kind:Reg ~width:8 [ ("init", "0x") ]));
  check_bool "unknown check action" true
    (fails (fun () -> Opspec.lookup ~kind:Check ~width:8 [ ("value", "1"); ("action", "halt") ]));
  check_bool "bad width" true
    (fails (fun () -> Opspec.lookup ~kind:(Bin Add) ~width:0 []));
  check_bool "mux needs >= 2" true
    (fails (fun () -> Opspec.lookup ~kind:Mux ~width:8 [ ("inputs", "1") ]))

let test_all_kinds_resolvable () =
  List.iter
    (fun (kind : Opkind.t) ->
      let attrs =
        match kind with
        | Const | Check -> [ ("value", "3") ]
        | Zext | Sext -> [ ("from", "4") ]
        | Sram | Rom -> [ ("memory", "m"); ("addr-width", "4"); ("size", "16") ]
        | _ -> []
      in
      ignore (Opspec.lookup ~kind ~width:8 attrs))
    Opkind.all;
  let p = (Opspec.lookup ~kind:Reg ~width:8 [ ("init", "0") ]).Opspec.params in
  check_bool "explicit init kept" true (p.Opspec.init = Some 0);
  let p = (Opspec.lookup ~kind:Reg ~width:8 []).Opspec.params in
  check_bool "absent init is not 0" true (p.Opspec.init = None)

(* --- models ---------------------------------------------------------- *)

(* Harness: instantiate one operator with fresh signals per port. *)
let harness ?(width = 8) ?(params = []) kind =
  let engine = Engine.create () in
  let clock = Clock.create engine ~period:10 () in
  let mem = Memory.create ~name:"m" ~width 16 in
  let spec = Opspec.lookup ~kind ~width params in
  let signals =
    List.map
      (fun (p : Opspec.port) ->
        (p.Opspec.port_name, Engine.signal engine ~name:p.Opspec.port_name p.Opspec.port_width))
      spec.Opspec.ports
  in
  let notes = ref [] in
  let env =
    {
      Models.engine;
      clock = Clock.signal clock;
      find_memory = (fun _ -> mem);
      find_signal = (fun n -> List.assoc n signals);
      instance = "dut";
      notify = (fun n -> notes := n :: !notes);
    }
  in
  Models.instantiate env ~width spec;
  (engine, signals, mem, notes)

let port signals name = List.assoc name signals

let test_model_add () =
  let engine, s, _, _ = harness (Bin Add) in
  Engine.drive engine (port s "a") (bv ~width:8 30);
  Engine.drive engine (port s "b") (bv ~width:8 12);
  ignore (Engine.run ~max_time:100 engine);
  check_int "sum" 42 (Engine.value_int (port s "y"))

let test_model_comparison () =
  let engine, s, _, _ = harness (Cmp Lts) in
  Engine.drive engine (port s "a") (bv ~width:8 0xFF) (* -1 *);
  Engine.drive engine (port s "b") (bv ~width:8 1);
  ignore (Engine.run ~max_time:100 engine);
  check_int "-1 < 1 signed" 1 (Engine.value_int (port s "y"))

let test_model_mux () =
  let engine, s, _, _ = harness Mux ~params:[ ("inputs", "3") ] in
  Engine.drive engine (port s "in0") (bv ~width:8 10);
  Engine.drive engine (port s "in1") (bv ~width:8 20);
  Engine.drive engine (port s "in2") (bv ~width:8 30);
  Engine.drive engine (port s "sel") (bv ~width:2 1);
  ignore (Engine.run ~max_time:50 engine);
  check_int "selects in1" 20 (Engine.value_int (port s "y"));
  Engine.drive engine (port s "sel") (bv ~width:2 3);
  ignore (Engine.run ~max_time:100 engine);
  check_int "out-of-range sel clamps to last" 30 (Engine.value_int (port s "y"))

let test_model_reg () =
  let engine, s, _, _ = harness Reg ~params:[ ("init", "5") ] in
  check_int "init value" 5 (Engine.value_int (port s "q"));
  Engine.drive engine (port s "d") (bv ~width:8 77);
  ignore (Engine.run ~max_time:22 engine);
  check_int "disabled: keeps value" 5 (Engine.value_int (port s "q"));
  Engine.drive engine (port s "en") (bv ~width:1 1);
  ignore (Engine.run ~max_time:42 engine);
  check_int "enabled: captures" 77 (Engine.value_int (port s "q"))

let test_model_counter () =
  let engine, s, _, _ = harness Counter ~params:[ ("step", "2") ] in
  Engine.drive engine (port s "en") (bv ~width:1 1);
  ignore (Engine.run ~max_time:52 engine) (* edges at 5,15,25,35,45 *);
  check_int "counted 5 edges by 2" 10 (Engine.value_int (port s "q"));
  Engine.drive engine (port s "load") (bv ~width:1 1);
  Engine.drive engine (port s "d") (bv ~width:8 100);
  ignore (Engine.run ~max_time:62 engine);
  check_int "load wins over en" 100 (Engine.value_int (port s "q"))

let test_model_sram () =
  let engine, s, mem, _ = harness Sram ~params:[ ("memory", "m"); ("addr-width", "4"); ("size", "16") ] in
  Memory.write mem 3 (bv ~width:8 99);
  Engine.drive engine (port s "addr") (bv ~width:4 3);
  ignore (Engine.run ~max_time:4 engine);
  check_int "async read" 99 (Engine.value_int (port s "dout"));
  (* Write 55 to address 7 on the next edge. *)
  Engine.drive engine (port s "addr") (bv ~width:4 7);
  Engine.drive engine (port s "din") (bv ~width:8 55);
  Engine.drive engine (port s "we") (bv ~width:1 1);
  ignore (Engine.run ~max_time:12 engine);
  check_int "stored" 55 (Bitvec.to_int (Memory.read mem 7));
  check_int "dout refreshed after write" 55 (Engine.value_int (port s "dout"))

let test_model_rom () =
  let engine, s, mem, _ = harness Rom ~params:[ ("memory", "m"); ("addr-width", "4"); ("size", "16") ] in
  Memory.write mem 2 (bv ~width:8 123);
  Engine.drive engine (port s "addr") (bv ~width:4 2);
  ignore (Engine.run ~max_time:10 engine);
  check_int "rom read" 123 (Engine.value_int (port s "dout"))

let test_model_probe () =
  let engine, s, _, notes = harness Probe in
  Engine.drive engine (port s "a") ~delay:3 (bv ~width:8 1);
  Engine.drive engine (port s "a") ~delay:6 (bv ~width:8 2);
  ignore (Engine.run ~max_time:20 engine);
  let samples =
    List.filter
      (function Models.Probe_sample _ -> true | Models.Check_failed _ -> false)
      !notes
  in
  check_int "two samples" 2 (List.length samples)

let test_model_check () =
  let engine, s, _, notes = harness Check ~params:[ ("value", "7") ] in
  Engine.drive engine (port s "a") (bv ~width:8 7);
  Engine.drive engine (port s "en") (bv ~width:1 1);
  ignore (Engine.run ~max_time:10 engine);
  check_int "no failure on match" 0 (List.length !notes);
  Engine.drive engine (port s "a") (bv ~width:8 8);
  ignore (Engine.run ~max_time:20 engine);
  check_int "failure recorded" 1 (List.length !notes)

let test_model_check_stop_action () =
  let engine, s, _, _ =
    harness Check ~params:[ ("value", "7"); ("action", "stop") ]
  in
  Engine.drive engine (port s "a") (bv ~width:8 9);
  Engine.drive engine (port s "en") (bv ~width:1 1);
  match Engine.run ~max_time:20 engine with
  | Engine.Stop_requested _ -> ()
  | _ -> Alcotest.fail "expected a stop"

let test_model_stop () =
  let engine, s, _, _ = harness Stop ~params:[ ("reason", "end of test") ] in
  Engine.drive engine (port s "en") ~delay:8 (bv ~width:1 1);
  match Engine.run ~max_time:50 engine with
  | Engine.Stop_requested r -> Alcotest.(check string) "reason" "end of test" r
  | _ -> Alcotest.fail "expected a stop"

let test_model_minmax_abs () =
  let run kind a_v b_v =
    let engine, s, _, _ = harness kind in
    Engine.drive engine (port s "a") (bv ~width:8 a_v);
    (match List.assoc_opt "b" s with
    | Some b -> Engine.drive engine b (bv ~width:8 b_v)
    | None -> ());
    ignore (Engine.run ~max_time:50 engine);
    Engine.value_int (port s "y")
  in
  check_int "minu" 3 (run (Bin Minu) 3 200);
  check_int "maxu" 200 (run (Bin Maxu) 3 200);
  (* 0xFF = -1 signed: mins picks it, minu does not. *)
  check_int "mins picks negative" 0xFF (run (Bin Mins) 0xFF 1);
  check_int "maxs picks positive" 1 (run (Bin Maxs) 0xFF 1);
  check_int "abs of -7" 7 (run (Un Abs) 0xF9 0);
  check_int "abs of 7" 7 (run (Un Abs) 7 0)

let test_model_zext_sext () =
  let engine, s, _, _ = harness Sext ~width:8 ~params:[ ("from", "4") ] in
  Engine.drive engine (port s "a") (bv ~width:4 0b1010);
  ignore (Engine.run ~max_time:10 engine);
  check_int "sign extended" 0xFA (Engine.value_int (port s "y"))

(* The functional kinds of the catalogue: every kind with a semantics. *)
let functional_kinds =
  List.filter
    (function Opkind.Bin _ | Cmp _ | Un _ -> true | _ -> false)
    Opkind.all

(* Property: every functional model computes its catalogue function. *)
let prop_alu_models_match_bitvec =
  QCheck2.Test.make ~name:"ALU models match Bitvec" ~count:100
    QCheck2.Gen.(
      triple (oneofl functional_kinds) (int_range 0 255) (int_range 0 255))
    (fun (k, a, b) ->
      let engine, s, _, _ = harness k in
      Engine.drive engine (port s "a") (bv ~width:8 a);
      (match List.assoc_opt "b" s with
      | Some port_b -> Engine.drive engine port_b (bv ~width:8 b)
      | None -> ());
      ignore (Engine.run ~max_time:50 engine);
      let a = bv ~width:8 a and b = bv ~width:8 b in
      let expected =
        match k with
        | Bin o -> Opkind.bin_bitvec o a b
        | Cmp o -> Opkind.cmp_bitvec o a b
        | Un o -> Opkind.un_bitvec o a
        | _ -> assert false
      in
      Engine.value_int (port s "y") = Bitvec.to_int expected)

(* --- the catalogue ---------------------------------------------------- *)

let test_opkind_names () =
  List.iter
    (fun k ->
      check_bool (Opkind.to_string k) true
        (Opkind.of_string (Opkind.to_string k) = Some k))
    Opkind.all;
  check_bool "unknown" true (Opkind.of_string "nope" = None);
  Alcotest.(check (list string))
    "all_kinds"
    [ "abs"; "add"; "and"; "check"; "const"; "counter"; "divs"; "divu";
      "eq"; "ges"; "geu"; "gts"; "gtu"; "les"; "leu"; "lts"; "ltu"; "maxs";
      "maxu"; "mins"; "minu"; "mul"; "mux"; "ne"; "neg"; "not"; "or";
      "pass"; "probe"; "reg"; "rems"; "remu"; "rom"; "sext"; "shl"; "shra";
      "shrl"; "sram"; "stop"; "sub"; "xor"; "zext" ]
    (List.sort compare (List.map Opkind.to_string Opkind.all))

(* The masked-int fast path at [width] agrees with the Bitvec reference
   on operands [a] and [b] (already masked). *)
let paths_agree ~width k a b =
  let v x = Bitvec.create ~width x in
  match k with
  | Opkind.Bin o ->
      Opkind.bin_int ~width o a b = Bitvec.to_int (Opkind.bin_bitvec o (v a) (v b))
  | Cmp o ->
      Opkind.cmp_int ~width o a b = Bitvec.to_int (Opkind.cmp_bitvec o (v a) (v b))
  | Un o -> Opkind.un_int ~width o a = Bitvec.to_int (Opkind.un_bitvec o (v a))
  | _ -> true

(* Edge operands of a width: zero, one, all-ones, both sides of the sign
   boundary, and the shift amounts around the width. *)
let edge_values width =
  let m = Opkind.mask width in
  let half = 1 lsl (width - 1) in
  List.sort_uniq compare
    (List.filter
       (fun v -> v >= 0 && v <= m)
       [ 0; 1; m; half; half - 1; width - 1; width; width + 1 ])

let test_paths_agree_on_edges () =
  for width = 1 to Bitvec.max_width do
    let edges = edge_values width in
    List.iter
      (fun k ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if not (paths_agree ~width k a b) then
                  Alcotest.failf "%s width %d: int path disagrees on %d, %d"
                    (Opkind.to_string k) width a b)
              edges)
          edges)
      functional_kinds
  done

let prop_paths_agree =
  QCheck2.Test.make ~name:"int path matches Bitvec path" ~count:2000
    QCheck2.Gen.(
      quad (oneofl functional_kinds) (int_range 1 Bitvec.max_width) int int)
    (fun (k, width, a, b) ->
      let m = Opkind.mask width in
      paths_agree ~width k (a land m) (b land m))

let suite =
  [
    ("memory basics", `Quick, test_memory_basics);
    ("memory out of range", `Quick, test_memory_out_of_range);
    ("memory load/diff", `Quick, test_memory_load_diff);
    ("memory clear", `Quick, test_memory_clear);
    ("memory width mismatch", `Quick, test_memory_width_mismatch);
    ("spec binary", `Quick, test_spec_binary);
    ("spec comparison bit output", `Quick, test_spec_comparison_output_is_bit);
    ("spec mux", `Quick, test_spec_mux);
    ("sel width", `Quick, test_sel_width);
    ("spec errors", `Quick, test_spec_errors);
    ("all kinds resolvable", `Quick, test_all_kinds_resolvable);
    ("model add", `Quick, test_model_add);
    ("model signed compare", `Quick, test_model_comparison);
    ("model mux", `Quick, test_model_mux);
    ("model reg", `Quick, test_model_reg);
    ("model counter", `Quick, test_model_counter);
    ("model sram", `Quick, test_model_sram);
    ("model rom", `Quick, test_model_rom);
    ("model probe", `Quick, test_model_probe);
    ("model check", `Quick, test_model_check);
    ("model check stop action", `Quick, test_model_check_stop_action);
    ("model stop", `Quick, test_model_stop);
    ("model min/max/abs", `Quick, test_model_minmax_abs);
    ("model sext", `Quick, test_model_zext_sext);
    QCheck_alcotest.to_alcotest prop_alu_models_match_bitvec;
    ("opkind names round-trip", `Quick, test_opkind_names);
    ("int path matches Bitvec on edges", `Quick, test_paths_agree_on_edges);
    QCheck_alcotest.to_alcotest prop_paths_agree;
  ]
