(* Negative self-tests: every correctness gate of the benchmark must fire
   on a broken input and stay quiet on the matching good one.

     bench.exe --selftest        (or: dune build @perfbench/selftest)

   Run from the repository root (the certify gate reads the committed
   lint snapshot). Exit 0 when every check holds. *)

module Suite = Testinfra.Suite

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let fires problems = problems <> []

(* Reads memory [i + 8] of a four-word memory: the golden model counts
   an out-of-range access, which fails verification under every
   variant. *)
let oob_source =
  "program oob width 16;\n\
   mem input[4];\n\
   mem output[4];\n\
   var i;\n\
   for (i = 0; i < 4; i = i + 1) {\n\
  \  output[i] = input[i + 8];\n\
   }\n"

let regress () =
  let probe source inits = Suite.run [ { Suite.case_name = "probe"; source; inits } ] in
  let good =
    Jobs.regress_outcome
      (probe
         (Workloads.Kernels.vecadd_source ~n:4)
         [ ("a", [ 1; 2; 3; 4 ]); ("b", [ 5; 6; 7; 8 ]) ])
  in
  check "regress: passing cells pass the gate" (not (fires good.Jobs.problems));
  let bad = Jobs.regress_outcome (probe oob_source [ ("input", [ 1; 2; 3; 4 ]) ]) in
  check "regress: a cell failing against the golden model fails the gate"
    (fires bad.Jobs.problems && bad.Jobs.failed = List.length Suite.default_variants)

(* [s] with every [sub] replaced by [by]. *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then (
      Buffer.add_string b by;
      go (i + n))
    else (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

let certify () =
  let label = "sum/plain" in
  let source =
    (List.find (fun c -> c.Suite.case_name = "sum") (Suite.builtin_cases ())).Suite.source
  in
  let compiled = Compiler.Compile.compile (Lang.Parser.parse_string source) in
  let diags, analyses = Jobs.deep_rows label (Compiler.Compile.lint_deep compiled) in
  let diags = diags @ Jobs.hdl_diags label compiled in
  let expected = Jobs.expected_subset (Jobs.read_file Jobs.expected_path) [ label ] in
  check "certify: output matching the snapshot passes the gate"
    (not (fires (Jobs.certify_gate ~expected (Jobs.render_deep diags analyses))));
  (* Prefixing a digit to every iteration count changes each one. *)
  let tampered = replace_all ~sub:"\"iterations\": " ~by:"\"iterations\": 1" expected in
  check "certify: a changed absint iteration count fails the gate"
    (tampered <> expected
    && fires (Jobs.certify_gate ~expected:tampered (Jobs.render_deep diags analyses)));
  check "certify: an extra analysis row fails the gate"
    (fires (Jobs.certify_gate ~expected (Jobs.render_deep diags (analyses @ analyses))))

let campaign () =
  let seed = Jobs.campaign_default_seed in
  check "campaign: the recorded interp digest passes the gate"
    (not (fires (Jobs.campaign_gate ~seed Jobs.campaign_reference_digest)));
  check "campaign: another digest at the default seed fails the gate"
    (fires (Jobs.campaign_gate ~seed (Digest.to_hex (Digest.string "another report"))))

let fuzz () =
  let o = Jobs.fuzz_outcome ~agreed:6 ~rejected:1 ~divergent:1 in
  check "fuzz: a divergent program is counted as failed and fails the run"
    (o.Jobs.failed = 1 && o.Jobs.items = 8 && fires o.Jobs.problems);
  let o = Jobs.fuzz_outcome ~agreed:7 ~rejected:1 ~divergent:0 in
  check "fuzz: agreeing and rejected programs pass"
    (o.Jobs.failed = 0 && not (fires o.Jobs.problems))

let determinism () =
  let o counts digest =
    { Jobs.items = 1; failed = 0; counts; digest; problems = [] }
  in
  let counts iterations = [ ("sim.events", 10.); ("absint.iterations", iterations) ] in
  let a = o (counts 3.) "d1" in
  let differs b = fires (Jobs.determinism ~what:"a repeat" a b) in
  check "determinism: identical counts pass" (not (differs a));
  check "determinism: a count that moves fails" (differs (o (counts 4.) "d1"));
  check "determinism: a digest that moves fails" (differs (o (counts 3.) "d2"))

let run () =
  regress ();
  certify ();
  campaign ();
  fuzz ();
  determinism ();
  if !failures = 0 then 0 else 1
