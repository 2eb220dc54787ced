(* The abstract-interpretation engine: every AI0xx code fires from a
   hand-built bundle, the guard-space cap reports BND002, guard pruning
   removes unreachable states, --fix rewrites DP015/XL008 pairs, and a
   qcheck oracle checks the soundness contract — for random compiled
   programs, every abstract register interval contains every value the
   cycle simulator observes in that state. *)

module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Compile = Compiler.Compile
module Dom = Absint.Dom
module Verify = Testinfra.Verify

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

let const ?(value = 1) id w =
  op id Const w ~params:[ ("value", string_of_int value) ]

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diag.code) ds)

let check_code what c ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got %s)" what c
       (String.concat "," (codes ds)))
    true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = c) ds)

let check_no_code what c ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s must not report %s" what c)
    false
    (List.exists (fun (d : Diag.t) -> d.Diag.code = c) ds)

let severity_of c ds =
  (List.find (fun (d : Diag.t) -> d.Diag.code = c) ds).Diag.severity

(* Deep-lint a single-configuration bundle built from one pair. *)
let deep_of dpd fsmd =
  let r =
    Rtg.singleton ~name:"t" ~datapath_ref:dpd.Dp.dp_name
      ~fsm_ref:fsmd.Fsm.fsm_name
  in
  Lint.run_deep ~rtg:r
    ~datapaths:[ (dpd.Dp.dp_name, dpd) ]
    ~fsms:[ (fsmd.Fsm.fsm_name, fsmd) ]
    ()

let done_fsm = fsm ~name:"t_fsm" ~initial:"s0" [ state "s0" ~is_done:true ]

let sram ?(size = 4) id =
  op id Sram 8
    ~params:
      [ ("memory", "m"); ("addr-width", "3"); ("size", string_of_int size) ]

(* --- the domain --------------------------------------------------------- *)

let test_dom_lattice () =
  let c = Dom.const ~width:8 in
  Alcotest.(check (option int)) "const is const" (Some 7) (Dom.is_const (c 7));
  Alcotest.(check (option int))
    "add folds" (Some 7)
    (Dom.is_const (Dom.binary Add (c 3) (c 4)));
  Alcotest.(check (option int))
    "not folds" (Some 255)
    (Dom.is_const (Dom.unary Not (c 0)));
  let j = Dom.join (c 2) (c 5) in
  Alcotest.(check bool) "join keeps 2" true (Dom.contains j 2);
  Alcotest.(check bool) "join keeps 5" true (Dom.contains j 5);
  Alcotest.(check bool) "join drops 9" false (Dom.contains j 9);
  Alcotest.(check bool) "zero is No" true (Dom.truth (c 0) = Dom.No);
  Alcotest.(check bool) "three is Yes" true (Dom.truth (c 3) = Dom.Yes);
  Alcotest.(check bool) "top is Maybe" true
    (Dom.truth (Dom.top ~width:8) = Dom.Maybe);
  (* Widening keeps everything the join held (soundness, not precision). *)
  let w = Dom.widen ~prev:(c 1) ~next:(Dom.join (c 1) (c 2)) () in
  Alcotest.(check bool) "widened keeps 1" true (Dom.contains w 1);
  Alcotest.(check bool) "widened keeps 2" true (Dom.contains w 2)

(* --- the provers -------------------------------------------------------- *)

let test_ai001_definite_oob_write () =
  let d =
    dp "t_dp"
      ~operators:
        [ const ~value:5 "a5" 3; const ~value:7 "d0" 8;
          const ~value:1 "we1" 1; sram "ram" ]
      ~nets:
        [
          net "n1" 3 (from "a5.y") ~sinks:[ "ram.addr" ];
          net "n2" 8 (from "d0.y") ~sinks:[ "ram.din" ];
          net "n3" 1 (from "we1.y") ~sinks:[ "ram.we" ];
        ]
  in
  let ds = (deep_of d done_fsm).Lint.deep_diags in
  check_code "address 5 into size-4 memory" "AI001" ds;
  Alcotest.(check bool) "definite store is an error" true
    (severity_of "AI001" ds = Diag.Error)

let test_ai001_partial_oob_write () =
  (* A free-running 3-bit counter addresses a 4-word memory: [0,7] only
     partially escapes, so the store may or may not be in range. *)
  let d =
    dp "t_dp"
      ~operators:
        [
          op "cnt" Counter 3; const ~value:1 "en1" 1;
          const ~value:0 "ld0" 1; const ~value:0 "z3" 3;
          const ~value:7 "d0" 8; const ~value:1 "we1" 1; sram "ram";
        ]
      ~statuses:[ status "s" "cnt.q" ]
      ~nets:
        [
          net "n1" 1 (from "en1.y") ~sinks:[ "cnt.en" ];
          net "n2" 1 (from "ld0.y") ~sinks:[ "cnt.load" ];
          net "n3" 3 (from "z3.y") ~sinks:[ "cnt.d" ];
          net "n4" 3 (from "cnt.q") ~sinks:[ "ram.addr" ];
          net "n5" 8 (from "d0.y") ~sinks:[ "ram.din" ];
          net "n6" 1 (from "we1.y") ~sinks:[ "ram.we" ];
        ]
  in
  let f =
    fsm ~name:"t_fsm" ~inputs:[ io "s" 3 ] ~initial:"s0"
      [
        state "s0"
          ~transitions:[ tr "halt" ~guard:(Guard.parse "s == 7"); tr "s0" ];
        state "halt" ~is_done:true;
      ]
  in
  let ds = (deep_of d f).Lint.deep_diags in
  check_code "counter address may escape" "AI001" ds;
  Alcotest.(check bool) "partial store is a warning" true
    (severity_of "AI001" ds = Diag.Warning)

let test_ai002_oob_read () =
  let d =
    dp "t_dp"
      ~operators:
        [
          const ~value:6 "a6" 3;
          op "rom1" Rom 8
            ~params:[ ("memory", "m"); ("addr-width", "3"); ("size", "4") ];
          op "p" Probe 8;
        ]
      ~nets:
        [
          net "n1" 3 (from "a6.y") ~sinks:[ "rom1.addr" ];
          net "n2" 8 (from "rom1.dout") ~sinks:[ "p.a" ];
        ]
  in
  check_code "consumed read at address 6" "AI002"
    (deep_of d done_fsm).Lint.deep_diags

let test_ai003_read_before_write () =
  (* A register that is never enabled: its reset default reaches the
     memory's write data port. *)
  let d =
    dp "t_dp"
      ~operators:
        [
          op "rg" Reg 8; const ~value:0 "z8" 8; const ~value:0 "en0" 1;
          const ~value:0 "a0" 3; const ~value:1 "we1" 1; sram "ram";
        ]
      ~nets:
        [
          net "n1" 8 (from "z8.y") ~sinks:[ "rg.d" ];
          net "n2" 1 (from "en0.y") ~sinks:[ "rg.en" ];
          net "n3" 8 (from "rg.q") ~sinks:[ "ram.din" ];
          net "n4" 3 (from "a0.y") ~sinks:[ "ram.addr" ];
          net "n5" 1 (from "we1.y") ~sinks:[ "ram.we" ];
        ]
  in
  check_code "reset default reaches a store" "AI003"
    (deep_of d done_fsm).Lint.deep_diags

let test_ai004_division_by_zero () =
  let d =
    dp "t_dp"
      ~operators:
        [ const ~value:5 "c5" 8; const ~value:0 "c0" 8; op "dv" (Bin Divu) 8 ]
      ~nets:
        [
          net "n1" 8 (from "c5.y") ~sinks:[ "dv.a" ];
          net "n2" 8 (from "c0.y") ~sinks:[ "dv.b" ];
        ]
  in
  check_code "constant zero divisor" "AI004"
    (deep_of d done_fsm).Lint.deep_diags

let test_ai005_truncation () =
  let d =
    dp "t_dp"
      ~operators:
        [
          const ~value:200 "big" 8;
          op "z" Zext 4 ~params:[ ("from", "8") ];
          op "p" Probe 4;
        ]
      ~nets:
        [
          net "n1" 8 (from "big.y") ~sinks:[ "z.a" ];
          net "n2" 4 (from "z.y") ~sinks:[ "p.a" ];
        ]
  in
  check_code "200 into 4 bits" "AI005" (deep_of d done_fsm).Lint.deep_diags

(* The operator-sharing shape: a unit looping back through a mux whose
   select is control-driven. The structural DP013 warning must resolve
   per state once the controller is known. *)
let loop_dp =
  dp "t_dp"
    ~operators:[ op "g" (Un Not) 8; op "m" Mux 8; const "c" 8 ]
    ~controls:[ ctl "sel" 1 ]
    ~nets:
      [
        net "n1" 8 (from "g.y") ~sinks:[ "m.in0" ];
        net "n2" 8 (from "m.y") ~sinks:[ "g.a" ];
        net "n3" 8 (from "c.y") ~sinks:[ "m.in1" ];
        net "n4" 1 (Dp.From_control "sel") ~sinks:[ "m.sel" ];
      ]

let loop_fsm sel_value =
  fsm ~name:"t_fsm" ~outputs:[ io "sel" 1 ] ~initial:"s0"
    [ state "s0" ~is_done:true ~settings:[ ("sel", sel_value) ] ]

let test_ai006_dynamic_cycle () =
  (* sel = 0 routes the looping input through: the cycle closes. *)
  let ds = (deep_of loop_dp (loop_fsm 0)).Lint.deep_diags in
  check_code "loop closes under sel=0" "AI006" ds;
  Alcotest.(check bool) "confirmed cycle is an error" true
    (severity_of "AI006" ds = Diag.Error);
  check_no_code "structural warning replaced" "DP013" ds;
  Alcotest.(check bool) "names the witnessing state" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.code = "AI006"
         &&
         let m = d.Diag.message in
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
           in
           go 0
         in
         has "state s0")
       ds)

let test_ai007_proved_acyclic () =
  (* sel = 1 routes the constant through in the only reachable state:
     the structural warning is discharged with a proof. *)
  let ds = (deep_of loop_dp (loop_fsm 1)).Lint.deep_diags in
  check_code "loop proved open under sel=1" "AI007" ds;
  Alcotest.(check bool) "proof is a note" true
    (severity_of "AI007" ds = Diag.Note);
  check_no_code "structural warning replaced" "DP013" ds

let test_guard_pruning_unreachable () =
  (* The status is a hard constant 0, so the s == 1 edge never fires and
     the state behind it is abstractly unreachable. *)
  let d =
    dp "t_dp"
      ~operators:[ const ~value:0 "z" 1 ]
      ~statuses:[ status "s" "z.y" ]
  in
  let f =
    fsm ~name:"t_fsm" ~inputs:[ io "s" 1 ] ~initial:"s0"
      [
        state "s0"
          ~transitions:[ tr "dead" ~guard:(Guard.parse "s == 1"); tr "halt" ];
        state "dead" ~transitions:[ tr "halt" ];
        state "halt" ~is_done:true;
      ]
  in
  let r = Absint.analyze d f in
  let reach = Absint.reachable_states r in
  Alcotest.(check bool) "s0 reachable" true (List.mem "s0" reach);
  Alcotest.(check bool) "halt reachable" true (List.mem "halt" reach);
  Alcotest.(check bool) "dead pruned" false (List.mem "dead" reach)

let test_bnd002_guard_space_cap () =
  let f =
    fsm ~name:"t_fsm" ~inputs:[ io "x" 2 ] ~initial:"s0"
      [
        state "s0"
          ~transitions:[ tr "halt" ~guard:(Guard.parse "x == 1"); tr "s0" ];
        state "halt" ~is_done:true;
      ]
  in
  check_code "4 assignments over a cap of 1" "BND002"
    (Lint.run_fsm ~guard_limit:1 f);
  check_no_code "default cap is generous" "BND002" (Lint.run_fsm f)

let test_deep_reports_analyses () =
  let deep = deep_of loop_dp (loop_fsm 1) in
  match deep.Lint.analyses with
  | [ a ] ->
      Alcotest.(check string) "configuration name" "t" a.Lint.cfg;
      Alcotest.(check bool) "fixpoint iterated" true
        (a.Lint.fixpoint_iterations > 0)
  | l -> Alcotest.failf "expected one analysis, got %d" (List.length l)

(* --- lint --fix --------------------------------------------------------- *)

let in_temp_dir f =
  let dir = Filename.temp_file "absint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let fix_dp =
  dp "g_dp"
    ~operators:[ const "c" 8; op "r" Reg 8 ]
    ~controls:[ ctl "r_en" 1; ctl "spare" 1 ]
    ~statuses:[ status "done_f" "r.q" ]
    ~nets:
      [
        net "n1" 8 (from "c.y") ~sinks:[ "r.d" ];
        net "n2" 1 (Dp.From_control "r_en") ~sinks:[ "r.en" ];
      ]

let fix_fsm =
  fsm ~name:"g_fsm"
    ~inputs:[ io "done_f" 8 ]
    ~outputs:[ io "r_en" 1; io "spare" 1 ]
    ~initial:"s0"
    [
      state "s0"
        ~settings:[ ("r_en", 1); ("spare", 1) ]
        ~transitions:[ tr "halt" ~guard:(Guard.parse "done_f == 0") ];
      state "halt" ~is_done:true;
    ]

let write_fix_bundle dir =
  let r = Rtg.singleton ~name:"g" ~datapath_ref:"g_dp" ~fsm_ref:"g_fsm" in
  Rtg.save (Filename.concat dir "g_rtg.xml") r;
  Dp.save (Filename.concat dir "g_dp.xml") fix_dp;
  Fsm.save (Filename.concat dir "g_fsm.xml") fix_fsm

let test_fix_dir_writes_copies () =
  in_temp_dir (fun dir ->
      write_fix_bundle dir;
      check_code "unused control present" "DP015" (Lint.run_dir dir);
      check_code "asserted unconnected present" "XL008" (Lint.run_dir dir);
      match Lint.fix_dir dir with
      | Error ds -> Alcotest.failf "fix_dir failed: %s" (Diag.render ds)
      | Ok fix ->
          check_code "before has DP015" "DP015" fix.Lint.before;
          check_no_code "after has no DP015" "DP015" fix.Lint.after;
          check_no_code "after has no XL008" "XL008" fix.Lint.after;
          check_no_code "fix introduced no XL002" "XL002" fix.Lint.after;
          check_no_code "fix introduced no XL003" "XL003" fix.Lint.after;
          Alcotest.(check int) "both documents rewritten" 2
            (List.length fix.Lint.fixed_paths);
          List.iter
            (fun p ->
              Alcotest.(check bool)
                (Printf.sprintf "%s exists" p)
                true (Sys.file_exists p);
              Alcotest.(check bool)
                (Printf.sprintf "%s is a copy" p)
                true
                (Filename.check_suffix p ".fixed.xml"))
            fix.Lint.fixed_paths;
          (* The originals are untouched: the directory still lints dirty. *)
          check_code "original still dirty" "DP015" (Lint.run_dir dir))

let test_fix_dir_in_place () =
  in_temp_dir (fun dir ->
      write_fix_bundle dir;
      match Lint.fix_dir ~in_place:true dir with
      | Error ds -> Alcotest.failf "fix_dir failed: %s" (Diag.render ds)
      | Ok _ ->
          Alcotest.(check (list string))
            "bundle clean after in-place fix" []
            (codes (Lint.run_dir dir)))

(* --- whole-suite deep cleanliness --------------------------------------- *)

let test_builtin_kernels_deep_clean () =
  List.iter
    (fun (case : Testinfra.Suite.case) ->
      List.iter
        (fun (vname, options) ->
          let compiled =
            Compile.compile ~options
              (Lang.Parser.parse_string case.Testinfra.Suite.source)
          in
          let deep = Compile.lint_deep compiled in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s deep error-free" case.Testinfra.Suite.case_name
               vname)
            []
            (codes (Diag.errors deep.Lint.deep_diags));
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s analyzed every configuration"
               case.Testinfra.Suite.case_name vname)
            true
            (List.length deep.Lint.analyses
            = List.length compiled.Compile.partitions))
        Testinfra.Suite.default_variants)
    (Testinfra.Suite.builtin_cases ())

(* --- the per-compile memo ------------------------------------------------ *)

(* A fresh compile of a builtin kernel: every call regenerates the
   documents, so two calls give content-equal but physically distinct
   designs. *)
let fresh_partition ?(options = Compile.default_options) name =
  let case =
    List.find
      (fun (c : Testinfra.Suite.case) -> c.Testinfra.Suite.case_name = name)
      (Testinfra.Suite.builtin_cases ())
  in
  let compiled =
    Compile.compile ~options (Lang.Parser.parse_string case.Testinfra.Suite.source)
  in
  let p = List.hd compiled.Compile.partitions in
  (p.Compile.datapath, p.Compile.fsm)

let same_analysis what a b =
  Alcotest.(check (list string))
    (what ^ ": diagnostics")
    (List.map Diag.to_string (Absint.diagnostics a))
    (List.map Diag.to_string (Absint.diagnostics b));
  Alcotest.(check bool)
    (what ^ ": cycle findings") true
    (Absint.cycle_findings a = Absint.cycle_findings b);
  Alcotest.(check int)
    (what ^ ": iterations") (Absint.iterations a) (Absint.iterations b);
  Alcotest.(check (list string))
    (what ^ ": reachable states")
    (Absint.reachable_states a) (Absint.reachable_states b)

let test_cache_hits_regenerated_design () =
  let cache = Absint.create_cache () in
  let dp1, fsm1 = fresh_partition "gcd" and dp2, fsm2 = fresh_partition "gcd" in
  Alcotest.(check bool) "the two compiles are distinct values" false (dp1 == dp2);
  let a = Absint.analyze ~cache dp1 fsm1 in
  let b = Absint.analyze ~cache dp2 fsm2 in
  Alcotest.(check bool) "content-equal design hits" true (a == b);
  let dp3, fsm3 = fresh_partition "sum" in
  Alcotest.(check bool) "another design misses" false
    (Absint.analyze ~cache dp3 fsm3 == a)

let test_cache_key_covers_options () =
  let cache = Absint.create_cache () in
  let dp, fsm = fresh_partition "vecadd" in
  let base = Absint.analyze ~cache dp fsm in
  let mem = Absint.analyze ~cache ~memories:[ ("a", [ 1; 2; 3 ]) ] dp fsm in
  let widen = Absint.analyze ~cache ~widen_after:2 dp fsm in
  Alcotest.(check bool) "other memories miss" false (mem == base);
  Alcotest.(check bool) "other widen_after misses" false (widen == base);
  Alcotest.(check bool) "explicit defaults hit" true
    (Absint.analyze ~cache ~widen_after:8 ~memories:[] dp fsm == base);
  Alcotest.(check bool) "memories entry hits again" true
    (Absint.analyze ~cache ~memories:[ ("a", [ 1; 2; 3 ]) ] dp fsm == mem)

let test_cache_matches_uncached () =
  let cache = Absint.create_cache () in
  List.iter
    (fun (name, options) ->
      let dp, fsm = fresh_partition ~options name in
      let miss = Absint.analyze ~cache dp fsm in
      let hit = Absint.analyze ~cache dp fsm in
      Alcotest.(check bool) (name ^ ": second call hits") true (hit == miss);
      same_analysis name hit (Absint.analyze dp fsm))
    [
      ("gcd", Compile.default_options);
      ("sort", Compile.default_options);
      ("hamming", { Compile.default_options with Compile.share_operators = true });
    ]

let test_cache_across_domains () =
  let designs =
    List.map (fun name -> (name, fresh_partition name)) [ "gcd"; "sum"; "fir" ]
  in
  let cache = Absint.create_cache () in
  let pool = Testinfra.Pool.create ~jobs:2 () in
  (* Every design four times, interleaved, so both domains race on each
     key. *)
  let tasks = List.concat (List.init 4 (fun _ -> designs)) in
  let results =
    List.map
      (function Ok r -> r | Error e -> raise e)
      (Testinfra.Pool.map pool
         (fun (_, (dp, fsm)) -> Absint.analyze ~cache dp fsm)
         tasks)
  in
  List.iter
    (fun (name, (dp, fsm)) ->
      let mine =
        List.filter_map
          (fun ((n, _), r) -> if n = name then Some r else None)
          (List.combine tasks results)
      in
      let first = List.hd mine in
      Alcotest.(check bool)
        (name ^ ": every domain got the stored analysis")
        true
        (List.for_all (fun r -> r == first) mine);
      same_analysis name first (Absint.analyze dp fsm))
    designs

(* The widening jump, as the linear search over the thresholds states
   it: the largest threshold at or below a falling lower bound (else 0),
   the smallest at or above a rising upper bound (else the maximum). *)
let prop_widen_thresholds =
  let open QCheck2 in
  let width = 8 in
  let dom =
    Gen.(
      map
        (fun (a, b) -> Dom.join (Dom.const ~width a) (Dom.const ~width b))
        (pair (int_bound 255) (int_bound 255)))
  in
  Test.make ~name:"widening lands on the nearest threshold" ~count:500
    Gen.(triple dom dom (list_size (int_bound 8) (int_bound 300)))
    (fun (prev, next, thresholds) ->
      let w = Dom.widen ~thresholds ~prev ~next () in
      let j = Dom.join prev next in
      let lo =
        if j.Dom.lo < prev.Dom.lo then
          List.fold_left
            (fun acc t -> if t <= j.Dom.lo && t > acc then t else acc)
            0 thresholds
        else j.Dom.lo
      and hi =
        if j.Dom.hi > prev.Dom.hi then
          List.fold_left
            (fun acc t -> if t >= j.Dom.hi && t < acc then t else acc)
            255 thresholds
        else j.Dom.hi
      in
      (* [norm] may tighten the jumped bounds further by known bits, so
         compare against the interval the jump allows. *)
      w.Dom.lo >= lo && w.Dom.hi <= hi
      && Dom.contains w j.Dom.lo && Dom.contains w j.Dom.hi
      && (w.Dom.lo = lo || w.Dom.kmask <> 0)
      && (w.Dom.hi = hi || w.Dom.kmask <> 0))

(* --- the soundness oracle ------------------------------------------------ *)

(* For every step the cycle simulator takes, the abstract interval of
   every sequential element must contain the concrete value observed on
   entry to the (concretely reached, hence abstractly reachable) state.
   The shared variant is excluded: Cyclesim rejects its structural
   cycles by design. *)
let prop_absint_sound =
  QCheck2.Test.make ~name:"abstract intervals contain cyclesim values"
    ~count:100 Test_compiler.random_program_gen (fun src ->
      let prog = Lang.Parser.parse_string src in
      List.for_all
        (fun (_, options) ->
          let compiled = Compile.compile ~options prog in
          let p = List.hd compiled.Compile.partitions in
          (* Declare every memory's declared init data: [memory_env]
             below loads exactly the same words, so the per-cell
             abstract-memory path is exercised under the oracle (the
             analyzer itself proves which memories stay read-only). *)
          let memories =
            List.map
              (fun (m : Lang.Ast.mem_decl) -> (m.Lang.Ast.mem_name, m.Lang.Ast.mem_init))
              prog.Lang.Ast.mems
          in
          let r = Absint.analyze ~memories p.Compile.datapath p.Compile.fsm in
          let lookup, _ = Verify.memory_env prog ~inits:[] in
          let cy =
            Cyclesim.create ~memories:lookup p.Compile.datapath p.Compile.fsm
          in
          let seq_ids =
            List.filter_map
              (fun (o : Dp.operator) ->
                if o.Dp.kind = Reg || o.Dp.kind = Counter then
                  Some o.Dp.id
                else None)
              p.Compile.datapath.Dp.operators
          in
          let ok = ref true in
          let steps = ref 0 in
          while !ok && (not (Cyclesim.in_done_state cy)) && !steps < 200 do
            Cyclesim.step cy;
            incr steps;
            let st = Cyclesim.current_state cy in
            List.iter
              (fun id ->
                let v = Bitvec.to_int (Cyclesim.port_value cy (id ^ ".q")) in
                match Absint.reg_interval r ~state:st ~reg:id with
                | None -> ok := false (* reached state must be reachable *)
                | Some (lo, hi) -> if v < lo || v > hi then ok := false)
              seq_ids
          done;
          !ok)
        (List.filter
           (fun ((_ : string), (o : Compile.options)) ->
             not o.Compile.share_operators)
           Testinfra.Suite.default_variants))

let suite =
  [
    Alcotest.test_case "domain lattice" `Quick test_dom_lattice;
    Alcotest.test_case "AI001 definite OOB write" `Quick
      test_ai001_definite_oob_write;
    Alcotest.test_case "AI001 partial OOB write" `Quick
      test_ai001_partial_oob_write;
    Alcotest.test_case "AI002 OOB read" `Quick test_ai002_oob_read;
    Alcotest.test_case "AI003 read before write" `Quick
      test_ai003_read_before_write;
    Alcotest.test_case "AI004 division by zero" `Quick
      test_ai004_division_by_zero;
    Alcotest.test_case "AI005 truncation" `Quick test_ai005_truncation;
    Alcotest.test_case "AI006 dynamic cycle" `Quick test_ai006_dynamic_cycle;
    Alcotest.test_case "AI007 proved acyclic" `Quick test_ai007_proved_acyclic;
    Alcotest.test_case "guard pruning" `Quick test_guard_pruning_unreachable;
    Alcotest.test_case "BND002 guard-space cap" `Quick
      test_bnd002_guard_space_cap;
    Alcotest.test_case "deep reports analyses" `Quick
      test_deep_reports_analyses;
    Alcotest.test_case "fix_dir writes copies" `Quick
      test_fix_dir_writes_copies;
    Alcotest.test_case "fix_dir in place" `Quick test_fix_dir_in_place;
    Alcotest.test_case "builtin kernels deep-clean" `Quick
      test_builtin_kernels_deep_clean;
    Alcotest.test_case "memo hits a regenerated design" `Quick
      test_cache_hits_regenerated_design;
    Alcotest.test_case "memo key covers memories and widen_after" `Quick
      test_cache_key_covers_options;
    Alcotest.test_case "memo results equal uncached analyses" `Quick
      test_cache_matches_uncached;
    Alcotest.test_case "memo shared by two pool domains" `Quick
      test_cache_across_domains;
    QCheck_alcotest.to_alcotest prop_widen_thresholds;
    QCheck_alcotest.to_alcotest prop_absint_sound;
  ]
