(* Translation validation: certificates over the builtin kernels under
   every compiler variant, hand-mutated bundles the validator must
   refute with a concrete witness, and the bound/verdict plumbing. *)

module Ast = Lang.Ast
module Compile = Compiler.Compile
module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* --- certificate surface ------------------------------------------- *)

let cert_kind = function
  | Tv.Proved -> "proved"
  | Tv.Refuted _ -> "refuted"
  | Tv.Inconclusive _ -> "inconclusive"

let witness = function
  | Tv.Refuted { witness } -> witness
  | c -> Alcotest.failf "expected a refutation, got %s" (cert_kind c)

let gcd_prog =
  "program gcd8 width 8; var x; var y; mem out[1];\n\
   x = 12; y = 8;\n\
   while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }\n\
   out[0] = x;"

(* --- builtin kernels x compile variants ----------------------------- *)

let tv_variants =
  [
    ("plain", Compile.default_options);
    ("optimize", { Compile.default_options with optimize = true });
    ("share", { Compile.default_options with share_operators = true });
    ("fold", { Compile.default_options with fold_branches = true });
    ( "all",
      {
        Compile.share_operators = true;
        optimize = true;
        fold_branches = true;
      } );
  ]

let enabled_passes (o : Compile.options) =
  (if o.Compile.optimize then 1 else 0)
  + (if o.Compile.share_operators then 1 else 0)
  + if o.Compile.fold_branches then 1 else 0

let test_builtins_all_proved () =
  List.iter
    (fun (case : Testinfra.Suite.case) ->
      let prog = Lang.Parser.parse_string case.Testinfra.Suite.source in
      List.iter
        (fun (vname, options) ->
          let compiled = Compile.compile ~options prog in
          let reports = Compile.certify compiled in
          let expected =
            enabled_passes options * List.length compiled.Compile.partitions
          in
          check Alcotest.int
            (Printf.sprintf "%s/%s certificate count"
               case.Testinfra.Suite.case_name vname)
            expected (List.length reports);
          List.iter
            (fun (r : Tv.report) ->
              check Alcotest.string
                (Printf.sprintf "%s/%s %s on %s"
                   case.Testinfra.Suite.case_name vname
                   (Tv.pass_name r.Tv.pass) r.Tv.partition)
                "proved"
                (cert_kind r.Tv.cert))
            reports)
        tv_variants)
    (Testinfra.Suite.builtin_cases ())

let test_certify_cached () =
  let prog = Lang.Parser.parse_string "program p width 8; var x; x = 3 * 7;" in
  let compiled =
    Compile.compile
      ~options:{ Compile.default_options with optimize = true }
      prog
  in
  let a = Compile.certify compiled in
  let b = Compile.certify compiled in
  checkb "same list physically" true (a == b);
  checkb "stored on t" true (compiled.Compile.tv == a);
  List.iter
    (fun (r : Tv.report) ->
      check Alcotest.string "default bounds prove" "proved"
        (cert_kind r.Tv.cert))
    a;
  (* The cache holds default-bounds certificates only: explicit bounds
     re-run the validators, so a budget too small to finish is reported
     even after a default call cached a proof, and the cache survives. *)
  let shared =
    Compile.compile
      ~options:{ Compile.default_options with share_operators = true }
      (Lang.Parser.parse_string gcd_prog)
  in
  let cached = Compile.certify shared in
  let tight =
    Compile.certify ~bounds:{ Tv.default_bounds with max_nodes = 3 } shared
  in
  check Alcotest.int "one share certificate" 1 (List.length tight);
  List.iter
    (fun (r : Tv.report) ->
      check Alcotest.string "explicit bounds bypass the cache" "inconclusive"
        (cert_kind r.Tv.cert))
    tight;
  checkb "explicit bounds leave the cache alone" true
    (Compile.certify shared == cached)

let test_tv_gate_passes () =
  let prog =
    Lang.Parser.parse_string
      "program g width 8; var x; var y; x = 12; y = 8;\n\
       while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }"
  in
  List.iter
    (fun (_, options) ->
      ignore (Compile.compile ~options ~tv_gate:true prog))
    tv_variants

(* --- source-level refutations --------------------------------------- *)

let g blocks entry = { Tv.blocks = Array.of_list blocks; entry }
let b events term = { Tv.events; term }
let v x = Ast.Var x

let test_source_swapped_operands () =
  (* pre: x = a - b   post: x = b - a *)
  let pre =
    g [ b [ Tv.Eassign ("x", Ast.Binop (Ast.Sub, v "a", v "b")) ] Tv.Thalt ] 0
  and post =
    g [ b [ Tv.Eassign ("x", Ast.Binop (Ast.Sub, v "b", v "a")) ] Tv.Thalt ] 0
  in
  let w =
    witness (Tv.validate_source ~width:8 ~pre ~post ())
  in
  checkb "witness names the assigned value" true
    (String.length w > 0
    && contains ~affix:"assigned value" w)

let test_source_dropped_store () =
  (* pre stores; post forgets the store *)
  let store = Tv.Estore ("m", Ast.Int 1, v "x") in
  let pre = g [ b [ Tv.Eassign ("x", Ast.Int 5); store ] Tv.Thalt ] 0
  and post = g [ b [ Tv.Eassign ("x", Ast.Int 5) ] Tv.Thalt ] 0 in
  let w = witness (Tv.validate_source ~width:8 ~pre ~post ()) in
  checkb "witness mentions the unmatched store" true
    (contains ~affix:"m[1]" w)

let test_source_legit_rewrites_validate () =
  (* strength reduction + constant branch folding + dropped check *)
  let pre =
    g
      [
        b
          [
            Tv.Echeck (Ast.Cmp (Ast.Eq, Ast.Int 1, Ast.Int 1));
            Tv.Eassign ("x", Ast.Binop (Ast.Mul, v "a", Ast.Int 8));
          ]
          (Tv.Tbranch (Ast.Cmp (Ast.Lt, Ast.Int 0, Ast.Int 1), 1, 2));
        b [ Tv.Estore ("m", Ast.Int 0, v "x") ] Tv.Thalt;
        b [ Tv.Estore ("m", Ast.Int 0, Ast.Int 0) ] Tv.Thalt;
      ]
      0
  and post =
    g
      [
        b
          [ Tv.Eassign ("x", Ast.Binop (Ast.Shl, v "a", Ast.Int 3)) ]
          (Tv.Tjump 1);
        b [ Tv.Estore ("m", Ast.Int 0, v "x") ] Tv.Thalt;
      ]
      0
  in
  check Alcotest.string "proved" "proved"
    (cert_kind (Tv.validate_source ~width:16 ~pre ~post ()))

let test_source_deleted_load_sound () =
  (* pre loads a temporary whose value the rewrite made irrelevant
     ($t0 * 0 -> 0): deletion is absorbed... *)
  let pre =
    g
      [
        b
          [
            Tv.Eload ("$t0", "m", v "i");
            Tv.Eassign ("x", Ast.Binop (Ast.Mul, v "$t0", Ast.Int 0));
          ]
          Tv.Thalt;
      ]
      0
  and post = g [ b [ Tv.Eassign ("x", Ast.Int 0) ] Tv.Thalt ] 0 in
  check Alcotest.string "proved" "proved"
    (cert_kind (Tv.validate_source ~width:8 ~pre ~post ()));
  (* ...but deleting a load whose value still matters is refuted. *)
  let post_bad = g [ b [ Tv.Eassign ("x", Ast.Int 7) ] Tv.Thalt ] 0 in
  ignore (witness (Tv.validate_source ~width:8 ~pre ~post:post_bad ()))

let test_source_inconclusive_bound () =
  (* Two loops that are equivalent but force pair exploration beyond a
     tiny budget. *)
  let loop =
    g
      [
        b
          [ Tv.Eassign ("i", Ast.Binop (Ast.Add, v "i", Ast.Int 1)) ]
          (Tv.Tbranch (Ast.Cmp (Ast.Lt, v "i", Ast.Int 10), 0, 1));
        b [] Tv.Thalt;
      ]
      0
  in
  match
    Tv.validate_source
      ~bounds:{ Tv.default_bounds with max_pairs = 1 }
      ~width:8 ~pre:loop ~post:loop ()
  with
  | Tv.Inconclusive { bound } ->
      checkb "bound names max_pairs" true
        (contains ~affix:"max_pairs" bound)
  | c -> Alcotest.failf "expected inconclusive, got %s" (cert_kind c)

(* --- hardware-level refutations -------------------------------------- *)

let bundle options =
  let compiled =
    Compile.compile ~options (Lang.Parser.parse_string gcd_prog)
  in
  let p = List.hd compiled.Compile.partitions in
  (p.Compile.datapath, p.Compile.fsm)

(* Swap the nets feeding two sinks of the same datapath (e.g. a
   subtractor's operands) — a classic binder bug. *)
let swap_sinks (dp : Dp.t) sink_a sink_b =
  let swap (e : Dp.endpoint) =
    let key = Dp.endpoint_to_string e in
    if key = sink_a then Dp.endpoint_of_string sink_b
    else if key = sink_b then Dp.endpoint_of_string sink_a
    else e
  in
  {
    dp with
    Dp.nets =
      List.map
        (fun (n : Dp.net) -> { n with Dp.sinks = List.map swap n.Dp.sinks })
        dp.Dp.nets;
  }

let find_binary_op (dp : Dp.t) kind =
  match List.find_opt (fun (o : Dp.operator) -> o.Dp.kind = kind) dp.Dp.operators with
  | Some o -> o.Dp.id
  | None ->
      Alcotest.failf "no %s operator in the generated datapath"
        (Operators.Opkind.to_string kind)

let test_hw_swapped_operands_refuted () =
  let reference = bundle Compile.default_options
  and cd, cf =
    bundle { Compile.default_options with share_operators = true }
  in
  let sub = find_binary_op cd (Bin Sub) in
  let mutated = swap_sinks cd (sub ^ ".a") (sub ^ ".b") in
  let w =
    witness
      (Tv.validate_hardware ~pass:Tv.Share_pass ~reference
         ~candidate:(mutated, cf) ())
  in
  checkb "witness names a state and element" true
    (contains ~affix:"state" w)

let test_hw_rewired_mux_refuted () =
  (* Drop a shared-operand mux by rewiring its output sink to one of the
     mux's inputs: the selection logic disappears from the cone. *)
  let reference = bundle Compile.default_options
  and cd, cf =
    bundle { Compile.default_options with share_operators = true }
  in
  let mux =
    match
      List.find_opt (fun (o : Dp.operator) -> o.Dp.kind = Mux) cd.Dp.operators
    with
    | Some o -> o
    | None -> Alcotest.fail "shared gcd has no operand mux"
  in
  (* Re-source every net driven by the mux's output from its in1 driver. *)
  let in1_source =
    let target = mux.Dp.id ^ ".in1" in
    match
      List.find_opt
        (fun (n : Dp.net) ->
          List.exists
            (fun e -> Dp.endpoint_to_string e = target)
            n.Dp.sinks)
        cd.Dp.nets
    with
    | Some n -> n.Dp.source
    | None -> Alcotest.fail "mux has no in1 driver"
  in
  let mutated =
    {
      cd with
      Dp.nets =
        List.map
          (fun (n : Dp.net) ->
            match n.Dp.source with
            | Dp.From_op e when e.Dp.inst = mux.Dp.id ->
                { n with Dp.source = in1_source }
            | _ -> n)
          cd.Dp.nets;
    }
  in
  ignore
    (witness
       (Tv.validate_hardware ~pass:Tv.Share_pass ~reference
          ~candidate:(mutated, cf) ()))

let test_hw_remapped_fold_state_refuted () =
  let reference = bundle Compile.default_options
  and cd, cf = bundle { Compile.default_options with fold_branches = true } in
  (* Remap one folded branch decision to the wrong target state. *)
  let branchy =
    List.find
      (fun (s : Fsm.state) ->
        List.length s.Fsm.transitions = 2
        && (List.hd s.Fsm.transitions).Fsm.guard <> Guard.True)
      cf.Fsm.states
  in
  let t0 = List.hd branchy.Fsm.transitions
  and t1 = List.nth branchy.Fsm.transitions 1 in
  let mutated =
    {
      cf with
      Fsm.states =
        List.map
          (fun (s : Fsm.state) ->
            if s.Fsm.sname = branchy.Fsm.sname then
              {
                s with
                Fsm.transitions =
                  [
                    { t0 with Fsm.target = t1.Fsm.target };
                    { t1 with Fsm.target = t0.Fsm.target };
                  ];
              }
            else s)
          cf.Fsm.states;
    }
  in
  let w =
    witness
      (Tv.validate_hardware ~pass:Tv.Fold_pass ~reference
         ~candidate:(cd, mutated) ())
  in
  checkb "witness names the targets" true
    (contains ~affix:"target" w)

let test_hw_const_mutation_refuted () =
  let reference = bundle Compile.default_options
  and cd, cf = bundle { Compile.default_options with fold_branches = true } in
  let mutated =
    {
      cd with
      Dp.operators =
        List.map
          (fun (o : Dp.operator) ->
            if o.Dp.kind = Const && List.assoc_opt "value" o.Dp.params = Some "12"
            then
              {
                o with
                Dp.params =
                  List.map
                    (fun (k, v) -> if k = "value" then (k, "13") else (k, v))
                    o.Dp.params;
              }
            else o)
          cd.Dp.operators;
    }
  in
  let w =
    witness
      (Tv.validate_hardware ~pass:Tv.Fold_pass ~reference
         ~candidate:(mutated, cf) ())
  in
  checkb "witness shows the differing values" true
    (contains ~affix:"sample" w)

(* Every hand-mutated fixture's refutation must be a {e real} behavioral
   divergence, not a solver artifact: the witness is a concrete
   assignment replayed through both cones ("env -> l vs r"), found by
   the sampling stage — pure concrete evaluation, no SAT anywhere — so
   it ends in "(sample k)". *)
let test_hw_refutations_replay () =
  let reference = bundle Compile.default_options
  and sd, sf =
    bundle { Compile.default_options with share_operators = true }
  in
  let sub = find_binary_op sd (Bin Sub) in
  let fixtures =
    [
      ( "swapped operands",
        Tv.Share_pass,
        (swap_sinks sd (sub ^ ".a") (sub ^ ".b"), sf) );
    ]
  in
  List.iter
    (fun (name, pass, candidate) ->
      let w =
        witness (Tv.validate_hardware ~pass ~reference ~candidate ())
      in
      checkb
        (Printf.sprintf "%s: witness is a replayed concrete world" name)
        true
        (contains ~affix:" -> " w && contains ~affix:" vs " w);
      checkb
        (Printf.sprintf "%s: witness found by concrete sampling" name)
        true
        (match String.rindex_opt w '(' with
        | None -> false
        | Some i ->
            let tail = String.sub w i (String.length w - i) in
            Scanf.sscanf_opt tail "(sample %u)%!" Fun.id <> None))
    fixtures

let test_hw_inconclusive_bound () =
  let reference = bundle Compile.default_options
  and candidate =
    bundle { Compile.default_options with share_operators = true }
  in
  match
    Tv.validate_hardware
      ~bounds:{ Tv.default_bounds with max_nodes = 3 }
      ~pass:Tv.Share_pass ~reference ~candidate ()
  with
  | Tv.Inconclusive { bound } ->
      checkb "bound names max_nodes" true
        (contains ~affix:"max_nodes" bound)
  | c -> Alcotest.failf "expected inconclusive, got %s" (cert_kind c)

let test_hw_rejects_optimize_pass () =
  let reference = bundle Compile.default_options in
  Alcotest.check_raises "invalid pass"
    (Invalid_argument
       "Tv.validate_hardware: Optimize_pass is validated at source level")
    (fun () ->
      ignore
        (Tv.validate_hardware ~pass:Tv.Optimize_pass ~reference
           ~candidate:reference ()))

(* --- diagnostics and gate -------------------------------------------- *)

let test_to_diag () =
  let r cert = { Tv.partition = "p"; pass = Tv.Share_pass; cert; seconds = 0. } in
  let d1p = Tv.to_diag (r Tv.Proved) in
  check Alcotest.string "proved code" "TV003" d1p.Diag.code;
  checkb "proved is a note" true (d1p.Diag.severity = Diag.Note);
  checkb "proved note says proved" true
    (contains ~affix:"proved" d1p.Diag.message);
  let d2 = Tv.to_diag (r (Tv.Refuted { witness = "w" })) in
  check Alcotest.string "refuted code" "TV001" d2.Diag.code;
  checkb "refuted is an error" true (Diag.is_error d2);
  let d3 = Tv.to_diag (r (Tv.Inconclusive { bound = "b" })) in
  check Alcotest.string "inconclusive code" "TV002" d3.Diag.code;
  checkb "inconclusive is a warning" true (d3.Diag.severity = Diag.Warning)

let test_lint_deep_carries_tv () =
  let prog = Lang.Parser.parse_string gcd_prog in
  let compiled =
    Compile.compile
      ~options:
        { Compile.share_operators = true; optimize = true; fold_branches = true }
      prog
  in
  let deep = Compile.lint_deep compiled in
  let tv_notes =
    List.filter (fun (d : Diag.t) -> d.Diag.code = "TV003") deep.Lint.deep_diags
  in
  check Alcotest.int "one TV003 note per enabled pass" 3 (List.length tv_notes)

let suite =
  [
    Alcotest.test_case "builtin kernels x variants all proved" `Slow
      test_builtins_all_proved;
    Alcotest.test_case "certificates are cached on the compile" `Quick
      test_certify_cached;
    Alcotest.test_case "tv gate passes on a correct compile" `Quick
      test_tv_gate_passes;
    Alcotest.test_case "source: swapped operands refuted" `Quick
      test_source_swapped_operands;
    Alcotest.test_case "source: dropped store refuted" `Quick
      test_source_dropped_store;
    Alcotest.test_case "source: legitimate rewrites validate" `Quick
      test_source_legit_rewrites_validate;
    Alcotest.test_case "source: deleted load soundness" `Quick
      test_source_deleted_load_sound;
    Alcotest.test_case "source: pair budget turns inconclusive" `Quick
      test_source_inconclusive_bound;
    Alcotest.test_case "hardware: swapped operands refuted" `Quick
      test_hw_swapped_operands_refuted;
    Alcotest.test_case "hardware: rewired mux refuted" `Quick
      test_hw_rewired_mux_refuted;
    Alcotest.test_case "hardware: remapped fold target refuted" `Quick
      test_hw_remapped_fold_state_refuted;
    Alcotest.test_case "hardware: constant mutation refuted" `Quick
      test_hw_const_mutation_refuted;
    Alcotest.test_case "hardware: refutations replay concretely" `Quick
      test_hw_refutations_replay;
    Alcotest.test_case "hardware: node budget turns inconclusive" `Quick
      test_hw_inconclusive_bound;
    Alcotest.test_case "hardware: optimize pass rejected" `Quick
      test_hw_rejects_optimize_pass;
    Alcotest.test_case "certificates map to TV diagnostics" `Quick test_to_diag;
    Alcotest.test_case "deep lint carries the certificates" `Quick
      test_lint_deep_carries_tv;
  ]
