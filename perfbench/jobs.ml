(* The four benchmark workloads.

   Each workload has an untraced [job], which calls the same library
   entry points the CLIs call and is what the end-to-end metrics time,
   and a [traced] replay of the same work through finer public calls
   with a {!Span} around each layer, which gives the per-layer table.
   Both check their outputs: a failed gate is returned as a problem
   string, never dropped. *)

module Suite = Testinfra.Suite
module Verify = Testinfra.Verify
module Simulate = Testinfra.Simulate
module Faultcamp = Testinfra.Faultcamp
module Report = Testinfra.Report
module Compile = Compiler.Compile
module Memory = Operators.Memory

(* What one pass over a workload's inputs produced. *)
type outcome = {
  items : int;
  failed : int;
  counts : (string * float) list;
      (* Exact counts: every repeat of one seed must reproduce them. *)
  digest : string;  (* Fingerprint of the checked output; must repeat too. *)
  problems : string list;  (* Failed correctness gates. *)
}

type job = { wall_s : float; setup_s : float; cpu_s : float; out : outcome }

type traced = {
  t_out : outcome;
  derived : (string * float) list;  (* Rates and ratios over span times. *)
}

type workload = {
  name : string;
  sizes : string;  (* Workload size, recorded with every result. *)
  job : seed:int -> job;
  trace : seed:int -> Span.recorder -> traced;
}

(* Runs [setup] then [work], timing both on the monotonic clock. *)
let timed_job ~setup ~work =
  let cpu0 = Host.cpu_s () in
  let t0 = Span.now_ns () in
  let inputs = setup () in
  let t1 = Span.now_ns () in
  let out = work inputs in
  let t2 = Span.now_ns () in
  {
    wall_s = Span.seconds_between t0 t2;
    setup_s = Span.seconds_between t0 t1;
    cpu_s = Host.cpu_s () -. cpu0;
    out;
  }

(* Every exact count and the output digest of [o] must equal those of
   [reference], a run of the same work. *)
let determinism ~what reference o =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k o.counts with
      | Some v' when v' <> v ->
          Some (Printf.sprintf "determinism: %s was %.17g, %s gave %.17g" k v what v')
      | _ -> None)
    reference.counts
  @
  if reference.digest <> o.digest then
    [ Printf.sprintf "determinism: output digest %s, %s gave %s" reference.digest what o.digest ]
  else []

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fi = float_of_int

let ratio a b = if b > 0. then a /. b else 0.

let span_s r layer = List.fold_left ( +. ) 0. (Span.durations r layer)

(* --- regress: the paper's compile / golden / simulate / diff flow ------ *)

(* FDCT and edge-detection image side, a multiple of 8 (builtin: 16). *)
let regress_px = 24
let regress_words = 32

let regress_cases ~seed =
  let st = Random.State.make [| seed; 0x5e6 |] in
  let ints n lo hi = List.init n (fun _ -> lo + Random.State.int st (hi - lo)) in
  let img = Workloads.Fdct.make_image ~width_px:regress_px ~height_px:regress_px ~seed in
  let n = regress_words in
  let case case_name source inits = { Suite.case_name; source; inits } in
  [
    case "fdct1"
      (Workloads.Fdct.source ~width_px:regress_px ~height_px:regress_px ())
      [ ("input", img) ];
    case "fdct2"
      (Workloads.Fdct.source ~partitioned:true ~width_px:regress_px
         ~height_px:regress_px ())
      [ ("input", img) ];
    case "hamming"
      (Workloads.Hamming.source ~n:(4 * n))
      [ ("input", Workloads.Hamming.make_codewords ~n:(4 * n) ~seed) ];
    case "vecadd"
      (Workloads.Kernels.vecadd_source ~n)
      [ ("a", ints n 0 30000); ("b", ints n 0 30000) ];
    case "sum" (Workloads.Kernels.sum_source ~n) [ ("input", ints n 0 1000) ];
    (* Subtractive gcd: operands stay small so the data-dependent loop
       count cannot swamp the rest of the suite. *)
    case "gcd" (Workloads.Kernels.gcd_source ()) [ ("input", ints 16 1 64) ];
    case "sort" (Workloads.Kernels.sort_source ~n:16) [ ("data", ints 16 0 32768) ];
    case "fir"
      (Workloads.Kernels.fir_source ~taps:[ 3; -2; 5; 1 ] ~n)
      [ ("input", ints n (-50) 50) ];
    case "edges"
      (Workloads.Kernels.edge_detect_source ~width_px:regress_px
         ~height_px:regress_px ~threshold:40)
      [ ("input", img) ];
  ]

(* Counts of one verified cell. *)
let cell_counts (compiled : Compile.t) (golden : Lang.Interp.stats)
    (hw : Simulate.rtg_run) =
  let parts = compiled.Compile.partitions in
  let stat f = sum (fun (r : Simulate.config_run) -> f r.Simulate.sim_stats) hw.Simulate.runs in
  [
    ("compiler.states", sum (fun p -> p.Compile.state_count) parts);
    ("compiler.fus", sum (fun p -> p.Compile.fu_count) parts);
    ("lang.interp.statements", golden.Lang.Interp.statements);
    ("sim.cycles", hw.Simulate.total_cycles);
    ("sim.events", stat (fun s -> s.Sim.Engine.events));
    ("sim.deltas", stat (fun s -> s.Sim.Engine.deltas));
    ("sim.activations", stat (fun s -> s.Sim.Engine.activations));
  ]

let add_counts acc cell =
  match acc with
  | [] -> cell
  | acc -> List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc cell

let floats l = List.map (fun (k, v) -> (k, fi v)) l

(* The suite's verdict: every cell must pass against the golden model. *)
let regress_outcome ((results : Suite.case_result list), (summary : Suite.summary)) =
  let counts =
    List.fold_left
      (fun acc (r : Suite.case_result) ->
        List.fold_left
          (fun acc (_, v) ->
            match v with
            | Suite.Verified o ->
                add_counts acc
                  (cell_counts o.Verify.compiled o.Verify.golden_stats o.Verify.hw_run)
            | Suite.Replayed _ | Suite.Cancelled_case -> acc)
          acc r.Suite.outcomes)
      [] results
  in
  let problems =
    List.map
      (fun (c, v) -> Printf.sprintf "regress: %s under %s fails against the golden model" c v)
      summary.Suite.failures
    @
    if summary.Suite.cancelled > 0 then [ "regress: verifications cancelled" ] else []
  in
  {
    items = summary.Suite.variants_run;
    failed = List.length summary.Suite.failures + summary.Suite.cancelled;
    counts = floats counts;
    digest = "";
    problems;
  }

let regress_job ~seed =
  timed_job
    ~setup:(fun () -> regress_cases ~seed)
    ~work:(fun cases -> regress_outcome (Suite.run ~jobs:1 cases))

let total_oob stores =
  sum (fun (_, m) -> Memory.out_of_range_accesses m) stores

let regress_trace ~seed r =
  let cases = regress_cases ~seed in
  let counts = ref [] and problems = ref [] in
  Span.root r "regress" (fun () ->
      List.iter
        (fun (case : Suite.case) ->
          List.iter
            (fun (variant, options) ->
              let detail = case.Suite.case_name ^ "/" ^ variant in
              let span layer f = Span.span r ~detail layer f in
              let prog =
                span "lang.parse.s" (fun () -> Lang.Parser.parse_string case.Suite.source)
              in
              let compiled = span "compiler.compile.s" (fun () -> Compile.compile ~options prog) in
              let golden, golden_stores = Verify.memory_env prog ~inits:case.Suite.inits in
              let hw, hw_stores = Verify.memory_env prog ~inits:case.Suite.inits in
              let _, gstats =
                span "lang.interp.s" (fun () -> Lang.Interp.run ~memories:golden prog)
              in
              let run = span "sim.run.s" (fun () -> Simulate.run_compiled ~memories:hw compiled) in
              let diffs =
                span "verify.diff.s" (fun () ->
                    List.map2 (fun (_, g) (_, h) -> Memory.diff g h) golden_stores hw_stores)
              in
              let checks =
                sum
                  (fun (c : Simulate.config_run) ->
                    List.length
                      (List.filter
                         (function
                           | Operators.Models.Check_failed _ -> true
                           | Operators.Models.Probe_sample _ -> false)
                         c.Simulate.notifications))
                  run.Simulate.runs
              in
              (* The pass rule of [Verify.run]. *)
              if
                not
                  (run.Simulate.all_completed
                  && List.for_all (( = ) []) diffs
                  && checks = gstats.Lang.Interp.asserts_failed
                  && total_oob golden_stores = 0)
              then
                problems :=
                  Printf.sprintf "regress: %s fails against the golden model" detail
                  :: !problems;
              counts := add_counts !counts (cell_counts compiled gstats run))
            Suite.default_variants)
        cases);
  let counts = floats !counts in
  {
    t_out =
      {
        items = List.length cases * List.length Suite.default_variants;
        failed = List.length !problems;
        counts;
        digest = "";
        problems = List.rev !problems;
      };
    derived =
      [ ("sim.events_per_s", ratio (List.assoc "sim.events" counts) (span_s r "sim.run.s")) ];
  }

(* --- certify: lint --deep over the builtin kernels x variants ---------- *)

(* The builtin kernels whose lint --deep runs inside one measured
   window; the FDCT pair alone takes most of the full 40 s pass. The
   reference is the matching subset of the committed snapshot. *)
let certify_kernels = [ "hamming"; "vecadd"; "sum"; "gcd"; "sort"; "fir"; "edges" ]
let expected_path = "examples/lint_deep.expected.json"

let certify_designs () =
  List.concat_map
    (fun (case : Suite.case) ->
      if List.mem case.Suite.case_name certify_kernels then
        List.map
          (fun (variant, options) ->
            (Printf.sprintf "%s/%s" case.Suite.case_name variant, case.Suite.source, options))
          Suite.default_variants
      else [])
    (Suite.builtin_cases ())

(* [fpgatest lint --deep --json --no-timing]'s rendering. *)
let render_deep diags (analyses : Lint.analysis list) =
  let analysis_json =
    match analyses with
    | [] -> "[]"
    | al ->
        "[\n"
        ^ String.concat ",\n"
            (List.map
               (fun (a : Lint.analysis) ->
                 Printf.sprintf
                   "    { \"configuration\": %S, \"seconds\": %.6f, \"iterations\": %d }"
                   a.Lint.cfg 0. a.Lint.fixpoint_iterations)
               al)
        ^ "\n  ]"
  in
  Printf.sprintf "{\n  \"diagnostics\": %s,\n  \"analysis\": %s\n}\n"
    (String.trim (Diag.to_json diags))
    analysis_json

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The lines of the committed snapshot that belong to [labels],
   reassembled in the snapshot's own layout. *)
let expected_subset text labels =
  let lines = String.split_on_char '\n' text in
  let strip l =
    if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1) else l
  in
  let owned l =
    List.exists
      (fun label ->
        List.exists
          (fun sub -> contains ~sub l)
          [
            "\"location\": \"" ^ label ^ " / ";
            "\"location\": \"" ^ label ^ "/verilog / ";
            "\"location\": \"" ^ label ^ "/vhdl / ";
            "\"configuration\": \"" ^ label ^ "/";
          ])
      labels
  in
  let pick prefix =
    List.filter (fun l -> String.starts_with ~prefix l && owned l) lines |> List.map strip
  in
  let block indent = function
    | [] -> "[]"
    | ls -> "[\n" ^ String.concat ",\n" ls ^ "\n" ^ indent ^ "]"
  in
  Printf.sprintf "{\n  \"diagnostics\": %s,\n  \"analysis\": %s\n}\n"
    (block "" (pick "  { \"code\""))
    (block "  " (pick "    { \"configuration\""))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The first differing line, for the gate's diagnostic. *)
let first_difference a b =
  let rec go i = function
    | x :: xs, y :: ys ->
        if x = y then go (i + 1) (xs, ys)
        else Printf.sprintf "line %d: got %s, expected %s" i x y
    | x :: _, [] -> Printf.sprintf "line %d: extra %s" i x
    | [], y :: _ -> Printf.sprintf "line %d: missing %s" i y
    | [], [] -> "identical"
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

let certify_gate ~expected rendered =
  if rendered = expected then []
  else
    [
      Printf.sprintf "certify: lint --deep output differs from %s (%s)" expected_path
        (first_difference rendered expected);
    ]

let hdl_diags label (compiled : Compile.t) =
  List.concat_map
    (fun (p : Compile.partition) ->
      let dp = p.Compile.datapath and fsm = p.Compile.fsm in
      Lint.prefix (label ^ "/verilog") (Hdl.Hdllint.verilog (Hdl.Verilog.system dp fsm))
      @ Lint.prefix (label ^ "/vhdl") (Hdl.Hdllint.vhdl (Hdl.Vhdl.system dp fsm)))
    compiled.Compile.partitions

let deep_rows label (d : Lint.deep) =
  ( Lint.prefix label d.Lint.deep_diags,
    List.map
      (fun (a : Lint.analysis) -> { a with Lint.cfg = label ^ "/" ^ a.Lint.cfg })
      d.Lint.analyses )

let certify_counts compiled_list analyses =
  let certs = List.concat_map (fun (_, c) -> c.Compile.tv) compiled_list in
  let proved = List.length (List.filter (fun (c : Tv.report) -> c.Tv.cert = Tv.Proved) certs) in
  let ec = Ec.Term.Stats.get () in
  ( List.length certs - proved,
    [
      ("tv.certificates", fi (List.length certs));
      ("tv.proved", fi proved);
      ("ec.sat_calls", fi ec.Ec.Term.Stats.sat_calls);
      ("ec.conflicts", fi ec.Ec.Term.Stats.conflicts);
      ("absint.configurations", fi (List.length analyses));
      ( "absint.iterations",
        fi (sum (fun (a : Lint.analysis) -> a.Lint.fixpoint_iterations) analyses) );
    ] )

let certify_finish ~expected compiled_list rows =
  let diags = List.concat_map fst rows and analyses = List.concat_map snd rows in
  let failed, counts = certify_counts compiled_list analyses in
  let rendered = render_deep diags analyses in
  {
    items = List.length compiled_list;
    failed;
    counts;
    digest = Digest.to_hex (Digest.string rendered);
    problems =
      certify_gate ~expected rendered
      @
      if failed > 0 then [ Printf.sprintf "certify: %d certificate(s) not proved" failed ]
      else [];
  }

let certify_expected () =
  expected_subset (read_file expected_path) (List.map (fun (l, _, _) -> l) (certify_designs ()))

let certify_job ~seed:_ =
  let expected = certify_expected () in
  Ec.Term.Stats.reset ();
  timed_job
    ~setup:(fun () ->
      List.map
        (fun (label, source, options) ->
          (label, Compile.compile ~options (Lang.Parser.parse_string source)))
        (certify_designs ()))
    ~work:(fun compiled_list ->
      let rows =
        List.map
          (fun (label, compiled) ->
            let hdl = hdl_diags label compiled in
            let diags, analyses = deep_rows label (Compile.lint_deep compiled) in
            (diags @ hdl, analyses))
          compiled_list
      in
      certify_finish ~expected compiled_list rows)

let certify_trace ~seed:_ r =
  let expected = certify_expected () in
  Ec.Term.Stats.reset ();
  let out =
    Span.root r "certify" (fun () ->
        let compiled_list =
          List.map
            (fun (label, source, options) ->
              let span layer f = Span.span r ~detail:label layer f in
              let prog = span "lang.parse.s" (fun () -> Lang.Parser.parse_string source) in
              (label, span "compiler.compile.s" (fun () -> Compile.compile ~options prog)))
            (certify_designs ())
        in
        let rows =
          List.map
            (fun (label, compiled) ->
              let span layer f = Span.span r ~detail:label layer f in
              let hdl =
                List.concat_map
                  (fun (p : Compile.partition) ->
                    let dp = p.Compile.datapath and fsm = p.Compile.fsm in
                    let v, h =
                      span "hdl.emit.s" (fun () ->
                          (Hdl.Verilog.system dp fsm, Hdl.Vhdl.system dp fsm))
                    in
                    span "hdl.lint.s" (fun () ->
                        Lint.prefix (label ^ "/verilog") (Hdl.Hdllint.verilog v)
                        @ Lint.prefix (label ^ "/vhdl") (Hdl.Hdllint.vhdl h)))
                  compiled.Compile.partitions
              in
              ignore (span "tv.certify.s" (fun () -> Compile.certify compiled));
              let diags, analyses =
                deep_rows label (span "lint.deep.s" (fun () -> Compile.lint_deep compiled))
              in
              (diags @ hdl, analyses))
            compiled_list
        in
        certify_finish ~expected compiled_list rows)
  in
  let iterations = List.assoc "absint.iterations" out.counts in
  {
    t_out = out;
    derived = [ ("absint.us_per_iteration", ratio (span_s r "lint.deep.s" *. 1e6) iterations) ];
  }

(* --- campaign: fault campaigns through fastsim and the domain pool ----- *)

let campaign_plan = [ ("hamming", 1500); ("fdct2", 300) ]
let campaign_jobs = 2
let campaign_default_seed = 1

(* Digest of both reports at [campaign_default_seed], produced once by
   the event-driven reference backend: [bench.exe --record-reference]. *)
let campaign_reference_digest = "20b58b2c421e6e649afc33101c046f5c"

let campaign_cases () =
  List.map
    (fun (name, faults) ->
      match Faultcamp.find_workload name with
      | Some case -> (case, faults)
      | None -> failwith ("campaign: no workload " ^ name))
    campaign_plan

let reports_digest reports =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun t -> Report.campaign_to_string t) reports)))

let campaign_counts (reports : Faultcamp.t list) =
  let count f = fi (sum (fun t -> List.length (f t)) reports) in
  let executed t = List.length t.Faultcamp.mutants - List.length (Faultcamp.cancelled t) in
  let detected =
    sum (fun t -> Float.to_int (Float.round (t.Faultcamp.kill_rate *. fi (executed t)))) reports
  in
  [
    ("faultcamp.mutants", fi (sum (fun t -> List.length t.Faultcamp.mutants) reports));
    ("faultcamp.mutant_cycles", fi (sum (fun t -> t.Faultcamp.total_mutant_cycles) reports));
    ("faultcamp.kill_rate", ratio (fi detected) (fi (sum executed reports)));
    ("faultcamp.crashed", count Faultcamp.crashes);
    ("faultcamp.retried", count Faultcamp.retried);
    ("faultcamp.wall_timeouts", count Faultcamp.wall_timeouts);
    ("faultcamp.quarantined", count Faultcamp.quarantined);
    ( "faultcamp.compiled_designs",
      fi
        (List.length
           (List.filter (fun t -> t.Faultcamp.backend_used = Faultcamp.Compiled) reports)) );
  ]

(* Quarantined mutants are crashers, so [crashes] already counts them. *)
let campaign_failed reports =
  sum
    (fun t ->
      List.length (Faultcamp.crashes t)
      + List.length (Faultcamp.wall_timeouts t)
      + List.length (Faultcamp.cancelled t))
    reports

(* The report is deterministic in the seed: its digest must match across
   repeats, and at the default seed the interp reference's digest. *)
let campaign_gate ~seed digest =
  if seed = campaign_default_seed && digest <> campaign_reference_digest then
    [
      Printf.sprintf "campaign: report digest %s differs from the interp reference %s" digest
        campaign_reference_digest;
    ]
  else []

let campaign_run ~seed ~backend ~jobs (case, faults) baseline =
  Faultcamp.run ~seed ~faults ~jobs ~backend ~baseline case

(* The reports' digest under [Faultcamp.Interp] on one domain. *)
let campaign_interp_digest ~seed =
  reports_digest
    (List.map
       (fun (case, faults) -> Faultcamp.run ~seed ~faults ~jobs:1 ~backend:Faultcamp.Interp case)
       (campaign_cases ()))

let campaign_finish ~seed reports =
  let digest = reports_digest reports in
  {
    items = sum (fun t -> List.length t.Faultcamp.mutants) reports;
    failed = campaign_failed reports;
    counts = campaign_counts reports;
    digest;
    problems = campaign_gate ~seed digest;
  }

let campaign_job ~seed =
  let cases = campaign_cases () in
  timed_job
    ~setup:(fun () ->
      List.map (fun (case, faults) -> snd (Faultcamp.prepare ~seed ~faults case)) cases)
    ~work:(fun baselines ->
      campaign_finish ~seed
        (List.map2
           (campaign_run ~seed ~backend:Faultcamp.Auto ~jobs:campaign_jobs)
           cases baselines))

let campaign_trace ~seed r =
  let cases = campaign_cases () in
  let run_cpu = ref 0. in
  let out =
    Span.root r "campaign" (fun () ->
        let baselines =
          List.map
            (fun ((case : Suite.case), faults) ->
              Span.span r ~detail:case.Suite.case_name "faultcamp.prepare.s" (fun () ->
                  snd (Faultcamp.prepare ~seed ~faults case)))
            cases
        in
        let reports =
          List.map2
            (fun ((case : Suite.case), faults) baseline ->
              let c0 = Host.cpu_s () in
              let t =
                Span.span r ~detail:case.Suite.case_name "faultcamp.run.s" (fun () ->
                    campaign_run ~seed ~backend:Faultcamp.Auto ~jobs:campaign_jobs (case, faults)
                      baseline)
              in
              run_cpu := !run_cpu +. (Host.cpu_s () -. c0);
              t)
            cases baselines
        in
        campaign_finish ~seed reports)
  in
  let run_s = span_s r "faultcamp.run.s" in
  {
    t_out = out;
    derived =
      [
        ("faultcamp.run.cpu_util", ratio !run_cpu (run_s *. fi campaign_jobs));
        ( "faultcamp.mutant_cycles_per_s",
          ratio (List.assoc "faultcamp.mutant_cycles" out.counts) run_s );
      ];
  }

(* --- fuzz: differential fuzzing over fresh generated programs ---------- *)

(* Small designs: the fuzz workload exists to expose per-design costs,
   and small programs keep the run from hanging on a few outliers. *)
let fuzz_profile =
  { Fuzz.Gen.default_profile with Fuzz.Gen.max_stmts = 3; max_partitions = 2 }

let fuzz_programs = 32
let fuzz_shape_seed = 2

(* [Fuzz.Driver.run]'s default cycle bound. *)
let fuzz_max_cycles = 200_000

(* A divergence is a wrong answer: it is counted as failed and fails the
   run — never skipped by moving to another seed. *)
let fuzz_outcome ~agreed ~rejected ~divergent =
  let ec = Ec.Term.Stats.get () in
  {
    items = agreed + rejected + divergent;
    failed = divergent;
    counts =
      [
        ("fuzz.agreed", fi agreed);
        ("fuzz.rejected", fi rejected);
        ("fuzz.divergent", fi divergent);
        ("ec.sat_calls", fi ec.Ec.Term.Stats.sat_calls);
        ("ec.conflicts", fi ec.Ec.Term.Stats.conflicts);
      ];
    digest = "";
    problems =
      (if divergent > 0 then [ Printf.sprintf "fuzz: %d divergent program(s)" divergent ] else []);
  }

(* Program [index]: a fixed shape from [Fuzz.Gen] whose memory contents
   the seed draws afresh, as [Fuzz.Gen] draws them (bytes, same lengths).
   Shapes differ in cost by up to 2x between generator seeds; fixing them
   keeps seeds comparable while each seed still runs new data through
   every oracle, absint's memory facts and TV's read-only memories. *)
let fuzz_program ~seed index =
  let p = Fuzz.Gen.program ~profile:fuzz_profile ~seed:fuzz_shape_seed ~index () in
  let st = Random.State.make [| 0xf022; seed; index |] in
  let redraw (m : Lang.Ast.mem_decl) =
    {
      m with
      Lang.Ast.mem_init = List.map (fun _ -> Random.State.int st 256) m.Lang.Ast.mem_init;
    }
  in
  { p with Lang.Ast.mems = List.map redraw p.Lang.Ast.mems }

(* [Fuzz.Driver.run]'s loop over the seed's programs,
   minus the shrinker: a divergence is counted and fails the run, its
   reproducer is not minimised here. *)
let fuzz_job ~seed =
  Ec.Term.Stats.reset ();
  timed_job
    ~setup:(fun () -> List.init fuzz_programs (fuzz_program ~seed))
    ~work:(fun programs ->
      let verdicts = List.map (Fuzz.Oracle.run ~max_cycles:fuzz_max_cycles) programs in
      let count p = List.length (List.filter p verdicts) in
      fuzz_outcome
        ~agreed:(count (( = ) Fuzz.Oracle.Agree))
        ~rejected:(count (function Fuzz.Oracle.Rejected _ -> true | _ -> false))
        ~divergent:(count (function Fuzz.Oracle.Diverged _ -> true | _ -> false)))

let fuzz_trace ~seed r =
  Ec.Term.Stats.reset ();
  let agreed = ref 0 and rejected = ref 0 and divergent = ref 0 in
  Span.root r "fuzz" (fun () ->
      for index = 0 to fuzz_programs - 1 do
        let detail = Printf.sprintf "program %d" index in
        let prog = Span.span r ~detail "fuzz.gen.s" (fun () -> fuzz_program ~seed index) in
        match
          Span.span r ~detail "fuzz.oracle.s" (fun () ->
              Fuzz.Oracle.run ~max_cycles:fuzz_max_cycles prog)
        with
        | Fuzz.Oracle.Agree -> incr agreed
        | Fuzz.Oracle.Rejected _ -> incr rejected
        | Fuzz.Oracle.Diverged _ -> incr divergent
      done);
  let oracle = List.sort compare (Span.durations r "fuzz.oracle.s") in
  let n = List.length oracle in
  let p50 =
    if n = 0 then 0.
    else if n mod 2 = 1 then List.nth oracle (n / 2)
    else (List.nth oracle ((n / 2) - 1) +. List.nth oracle (n / 2)) /. 2.
  in
  {
    t_out = fuzz_outcome ~agreed:!agreed ~rejected:!rejected ~divergent:!divergent;
    derived = [ ("fuzz.oracle.p50_s", p50); ("fuzz.oracle.samples", fi n) ];
  }

let all =
  [
    {
      name = "regress";
      sizes =
        Printf.sprintf "9 kernels x %d variants; FDCT/edges %dx%d px; %d-word vectors"
          (List.length Suite.default_variants) regress_px regress_px regress_words;
      job = regress_job;
      trace = regress_trace;
    };
    {
      name = "certify";
      sizes =
        Printf.sprintf "lint --deep over %s x %d variants"
          (String.concat "," certify_kernels) (List.length Suite.default_variants);
      job = certify_job;
      trace = certify_trace;
    };
    {
      name = "campaign";
      sizes =
        Printf.sprintf "%s mutants; backend auto; %d domains"
          (String.concat ", " (List.map (fun (w, n) -> Printf.sprintf "%s %d" w n) campaign_plan))
          campaign_jobs;
      job = campaign_job;
      trace = campaign_trace;
    };
    {
      name = "fuzz";
      sizes =
        Printf.sprintf
          "%d generated programs (max %d statements, %d partitions) x 5 variants x 4 \
           backends + TV"
          fuzz_programs fuzz_profile.Fuzz.Gen.max_stmts fuzz_profile.Fuzz.Gen.max_partitions;
      job = fuzz_job;
      trace = fuzz_trace;
    };
  ]
