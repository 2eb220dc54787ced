(* Differential tests for the compiled bit-parallel fault-simulation
   backend: every lane's observables (completion, cycle count, check
   failures, final memories, out-of-range counters) must equal the
   event-driven reference's, and campaign reports must be byte-identical
   whichever backend produced them. *)

module Compile = Compiler.Compile
module Verify = Testinfra.Verify
module Simulate = Testinfra.Simulate
module Faultcamp = Testinfra.Faultcamp
module Report = Testinfra.Report
module Memory = Operators.Memory
module Fault = Faults.Fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_temp_file f =
  let path = Filename.temp_file "fastsim" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let checks_of (run : Simulate.rtg_run) =
  List.fold_left
    (fun acc (c : Simulate.config_run) ->
      acc
      + List.length
          (List.filter
             (function Operators.Models.Check_failed _ -> true | _ -> false)
             c.Simulate.notifications))
    0 run.Simulate.runs

let mems stores = List.map (fun (n, m) -> (n, Memory.to_list m)) stores

let oob stores =
  List.fold_left (fun a (_, m) -> a + Memory.out_of_range_accesses m) 0 stores

(* Build the fastsim lane spec for one fault, with its private memory
   environment, exactly as the campaign layer does. *)
let lane_of_fault prog ~inits fault =
  let lookup, stores = Verify.memory_env prog ~inits in
  Fault.apply_to_memories lookup fault;
  let injections =
    match Fault.perturbation fault with
    | Some (cfg, port, fn) -> [ (Some cfg, port, fn) ]
    | None -> []
  in
  ( {
      Fastsim.memories = lookup;
      injections;
      mutate_fsm = (fun fsm -> Fault.apply_to_fsm fsm fault);
    },
    stores )

(* Event-driven reference for the same fault. *)
let reference_run prog ~inits compiled fault =
  let lookup, stores = Verify.memory_env prog ~inits in
  Fault.apply_to_memories lookup fault;
  let injections =
    match Fault.perturbation fault with
    | Some (cfg, port, fn) ->
        [ { Simulate.inj_cfg = Some cfg; inj_port = port; inj_transform = fn } ]
    | None -> []
  in
  let run =
    Simulate.run_compiled ~max_cycles:200_000 ~injections
      ~mutate_fsm:(fun fsm -> Fault.apply_to_fsm fsm fault)
      ~memories:lookup compiled
  in
  (run, stores)

let compare_lane tag (run, ref_stores) (r : Fastsim.lane_result) lane_stores =
  check_bool (tag ^ ": completed") run.Simulate.all_completed
    r.Fastsim.completed;
  check_int (tag ^ ": cycles") run.Simulate.total_cycles r.Fastsim.total_cycles;
  check_int (tag ^ ": checks") (checks_of run) r.Fastsim.checks;
  check_bool (tag ^ ": memories") true (mems ref_stores = mems lane_stores);
  check_int (tag ^ ": out-of-range accesses") (oob ref_stores)
    (oob lane_stores)

(* Pack a whole fault plan into one batched run (clean design in lane 0)
   and compare every lane against its own event-driven simulation. *)
let diff_plan label ?options ~seed ~n src inits =
  let prog = Lang.Parser.parse_string src in
  let compiled = Compile.compile ?options prog in
  let plan = Fault.plan ~seed ~warn:(fun _ -> ()) ~n compiled in
  check_bool (label ^ ": plan is non-empty") true (plan <> []);
  let t = Fastsim.compile compiled in
  let lanes =
    Array.of_list
      ((Fastsim.clean_lane (fst (Verify.memory_env prog ~inits)), [])
      :: List.map (lane_of_fault prog ~inits) plan)
  in
  let res = Fastsim.run ~max_cycles:200_000 t (Array.map fst lanes) in
  List.iteri
    (fun i fault ->
      let l = i + 1 in
      let tag = Printf.sprintf "%s lane %d (%s)" label l (Fault.describe fault) in
      compare_lane tag
        (reference_run prog ~inits compiled fault)
        res.(l)
        (snd lanes.(l)))
    plan

let gcd_inits =
  [ ("input", [ 12; 18; 7; 7; 100; 75; 9; 28; 14; 21; 5; 40; 33; 11; 64; 48 ]) ]

let test_gcd_plan () =
  diff_plan "gcd8" ~seed:3 ~n:40 (Workloads.Kernels.gcd_source ()) gcd_inits

let test_vecadd_plan () =
  diff_plan "vecadd" ~seed:3 ~n:40
    (Workloads.Kernels.vecadd_source ~n:8)
    [ ("a", [ 1; 2; 3; 4; 5; 6; 7; 8 ]); ("b", [ 8; 7; 6; 5; 4; 3; 2; 1 ]) ]

let shared_src =
  "program t width 16; var a; var b; a = a * b + 1; b = (a + 2) * b;"

let shared_options =
  { Compile.share_operators = true; optimize = false; fold_branches = false }

let test_shared_operators_admissible () =
  (* Operator sharing creates structural combinational cycles that the
     levelized Cyclesim refuses outright; the abstract-interpretation
     AI007 proofs show every such cycle is mux-broken, so the compiled
     backend admits the design — and must still match the reference. *)
  let compiled =
    Compile.compile ~options:shared_options (Lang.Parser.parse_string shared_src)
  in
  (match Fastsim.admissible compiled with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("shared design not admissible: " ^ e));
  diff_plan "shared" ~options:shared_options ~seed:5 ~n:30 shared_src []

let test_self_loop_not_admissible () =
  (* A combinational self-loop has no mux to break it: absint cannot
     prove it acyclic, so the compiled backend must refuse the design. *)
  let compiled, p = Test_cyclesim.self_loop_partition () in
  match Fastsim.admissible { compiled with Compile.partitions = [ p ] } with
  | Ok () -> Alcotest.fail "a combinational self-loop was admitted"
  | Error _ -> ()

(* Regression: a full batch occupies all 63 lanes, and lane 62 sits in
   the sign bit of the lane mask. The all-lanes mask was once built as
   [-1 lsr 1] (= max_int, bits 0..61), which silently dropped lane 62
   from the alive set: its mutant never simulated and came back with a
   spurious "completed in 0 cycles" verdict. The mask must be [-1]. *)
let test_full_batch_uses_every_lane () =
  let src = Workloads.Kernels.gcd_source () in
  let prog = Lang.Parser.parse_string src in
  let compiled = Compile.compile prog in
  let plan =
    Fault.plan ~seed:1 ~warn:(fun _ -> ()) ~n:Fastsim.max_mutants_per_batch
      compiled
  in
  check_int "plan fills the batch" Fastsim.max_mutants_per_batch
    (List.length plan);
  let t = Fastsim.compile compiled in
  let lanes =
    Array.of_list
      ((Fastsim.clean_lane (fst (Verify.memory_env prog ~inits:gcd_inits)), [])
      :: List.map (lane_of_fault prog ~inits:gcd_inits) plan)
  in
  check_int "all 63 lanes occupied" Fastsim.max_lanes (Array.length lanes);
  let res = Fastsim.run ~max_cycles:200_000 t (Array.map fst lanes) in
  (* The sign-bit lane first: it must have actually simulated. *)
  let last = Fastsim.max_lanes - 1 in
  let last_fault = List.nth plan (last - 1) in
  check_bool "lane 62 executed at least one cycle" true
    (res.(last).Fastsim.total_cycles > 0);
  compare_lane
    (Printf.sprintf "lane %d (%s)" last (Fault.describe last_fault))
    (reference_run prog ~inits:gcd_inits compiled last_fault)
    res.(last)
    (snd lanes.(last));
  (* And the rest of the batch. *)
  List.iteri
    (fun i fault ->
      let l = i + 1 in
      let tag = Printf.sprintf "full-batch lane %d" l in
      compare_lane tag
        (reference_run prog ~inits:gcd_inits compiled fault)
        res.(l)
        (snd lanes.(l)))
    plan

(* qcheck: on random straight-line programs the compiled backend's clean
   lane agrees with the event-driven kernel — and with Cyclesim, the
   third oracle, whenever the design is levelizable. Same generator as
   the cyclesim equivalence property. *)
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

let prop_clean_equivalence =
  QCheck2.Test.make
    ~name:"compiled backend = event-driven = cyclesim on random programs"
    ~count:40 random_program
    (fun src ->
      let inits = [ ("m", [ 3; 1; 4; 1 ]) ] in
      let prog = Lang.Parser.parse_string src in
      let compiled = Compile.compile prog in
      let ev_lookup, ev_stores = Verify.memory_env prog ~inits in
      let ev = Simulate.run_compiled ~memories:ev_lookup compiled in
      let fs_lookup, fs_stores = Verify.memory_env prog ~inits in
      let t = Fastsim.compile compiled in
      let r = (Fastsim.run t [| Fastsim.clean_lane fs_lookup |]).(0) in
      let agree =
        ev.Simulate.all_completed = r.Fastsim.completed
        && ev.Simulate.total_cycles = r.Fastsim.total_cycles
        && checks_of ev = r.Fastsim.checks
        && mems ev_stores = mems fs_stores
        && oob ev_stores = oob fs_stores
      in
      (* Third oracle on the single partition, where levelizable. *)
      let cyclesim_agrees =
        match compiled.Compile.partitions with
        | [ p ] -> (
            let cy_lookup, cy_stores = Verify.memory_env prog ~inits in
            match
              Cyclesim.create ~memories:cy_lookup p.Compile.datapath
                p.Compile.fsm
            with
            | exception Cyclesim.Combinational_cycle _ -> true
            | cy ->
                Cyclesim.run cy = `Done
                && Cyclesim.cycles cy = r.Fastsim.total_cycles
                && Cyclesim.check_failures cy = r.Fastsim.checks
                && mems cy_stores = mems fs_stores)
        | _ -> true
      in
      agree && cyclesim_agrees)

(* --- campaign-level equivalence ----------------------------------------- *)

let gcd_case () =
  match Faultcamp.find_workload "gcd8" with
  | Some c -> c
  | None -> Alcotest.fail "gcd8 workload missing"

(* 80 faults span two bit-lane batches (one full, one partial), so this
   covers batch slicing and the sign-bit lane at the campaign level. *)
let test_campaign_reports_identical () =
  let case = gcd_case () in
  let ci = Faultcamp.run ~seed:1 ~faults:80 ~backend:Faultcamp.Interp case in
  let cc = Faultcamp.run ~seed:1 ~faults:80 ~backend:Faultcamp.Compiled case in
  check_bool "compiled backend resolved" true
    (cc.Faultcamp.backend_used = Faultcamp.Compiled);
  check_string "compiled report equals interp report"
    (Report.campaign_to_string ~verbose:true ci)
    (Report.campaign_to_string ~verbose:true cc)

let test_auto_resolves_compiled () =
  let c = Faultcamp.run ~seed:1 ~faults:5 ~backend:Faultcamp.Auto (gcd_case ()) in
  check_bool "auto picked the compiled backend" true
    (c.Faultcamp.backend_used = Faultcamp.Compiled);
  check_bool "requested backend recorded" true
    (c.Faultcamp.backend = Faultcamp.Auto)

let test_compiled_journal_resume () =
  with_temp_file (fun path ->
      let case = gcd_case () in
      let partial =
        Faultcamp.run ~seed:1 ~faults:80 ~backend:Faultcamp.Compiled
          ~journal_path:path ~stop_after:2 case
      in
      check_bool "stop-after interrupts the campaign" true
        partial.Faultcamp.interrupted;
      let resumed = Faultcamp.resume path in
      (* The journal header carries the requested backend; the resumed
         remainder re-resolves it rather than silently downgrading. *)
      check_bool "resume re-resolves the journaled backend" true
        (resumed.Faultcamp.backend = Faultcamp.Compiled
        && resumed.Faultcamp.backend_used = Faultcamp.Compiled);
      check_bool "resume replays checkpointed work" true
        (resumed.Faultcamp.replayed >= 2);
      check_bool "resumed campaign completed" true
        (not resumed.Faultcamp.interrupted);
      let fresh =
        Faultcamp.run ~seed:1 ~faults:80 ~backend:Faultcamp.Interp case
      in
      check_string "resumed compiled report equals fresh interp report"
        (Report.campaign_to_string ~verbose:true fresh)
        (Report.campaign_to_string ~verbose:true resumed))

let suite =
  [
    ("gcd8 fault plan matches the reference", `Quick, test_gcd_plan);
    ("vecadd fault plan matches the reference", `Quick, test_vecadd_plan);
    ( "shared-operator design admitted and matches",
      `Quick,
      test_shared_operators_admissible );
    ( "full 63-lane batch simulates every lane",
      `Quick,
      test_full_batch_uses_every_lane );
    QCheck_alcotest.to_alcotest prop_clean_equivalence;
    ( "campaign reports identical across backends",
      `Quick,
      test_campaign_reports_identical );
    ("auto resolves to compiled", `Quick, test_auto_resolves_compiled);
    ( "compiled journal resumes to the same report",
      `Quick,
      test_compiled_journal_resume );
    ("combinational self-loop not admissible", `Quick, test_self_loop_not_admissible);
  ]
