(* Command-line driver for the test infrastructure.

   Subcommands mirror the paper's flow: [compile] emits the XML dialects
   and their translations, [simulate] runs the generated architecture over
   memory files, [verify] compares it against the golden software run,
   [lint] statically analyzes documents and bundles (structured
   diagnostics, non-zero exit on errors), [dot]/[verilog]/[vhdl]
   translate existing XML documents, [metrics] prints a Table-I row,
   [campaign] measures the verifier with seeded-fault mutation campaigns,
   and [fig1] renders the infrastructure diagram. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_program path = Lang.Parser.parse_file path

let options_of share optimize fold =
  { Compiler.Compile.share_operators = share; optimize; fold_branches = fold }

(* --mem name=path arguments -> initial word lists *)
let inits_of_specs specs =
  List.map
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          (name, Testinfra.Memfile.load_list path)
      | None -> failwith (Printf.sprintf "--mem %S: expected name=path" spec))
    specs

let handle_errors f =
  try f () with
  | Lang.Check.Invalid errs
  | Compiler.Compile.Error errs
  | Netlist.Datapath.Invalid errs
  | Fsmkit.Fsm.Invalid errs
  | Rtg.Invalid errs ->
      List.iter (Printf.eprintf "error: %s\n") errs;
      exit 1
  | Lang.Parser.Parse_error _ as e ->
      Printf.eprintf "%s\n"
        (Option.value ~default:"parse error"
           (Lang.Parser.error_to_string e));
      exit 1
  | Testinfra.Memfile.Format_error { line; message } ->
      Printf.eprintf "memory file error at line %d: %s\n" line message;
      exit 1
  | Lang.Interp.Runaway message ->
      Printf.eprintf "error: %s\n" message;
      exit 1
  | Lang.Lexer.Lex_error _ as e ->
      Printf.eprintf "%s\n"
        (Option.value ~default:"lexical error"
           (Lang.Parser.error_to_string e));
      exit 1
  | Xmlkit.Xml_parser.Parse_error _ as e ->
      Printf.eprintf "%s\n"
        (Option.value ~default:"XML parse error"
           (Xmlkit.Xml_parser.error_to_string e));
      exit 1
  | Xmlkit.Xml_query.Schema_error msg ->
      Printf.eprintf "schema error: %s\n" msg;
      exit 1
  | Netlist.Datapath.Unknown_kind d ->
      Printf.eprintf "error: %s\n" (Diag.to_message d);
      exit 1
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      (* Invalid_argument is the backstop for out-of-range values that
         slip past the per-command validation (e.g. Pool.create) — one
         readable line, never a backtrace. *)
      Printf.eprintf "error: %s\n" msg;
      exit 1

(* --- arguments -------------------------------------------------------- *)

let src_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Source program file.")

let share_arg =
  Arg.(value & flag & info [ "share" ] ~doc:"Bind functional units with operator sharing.")

let optimize_arg =
  Arg.(value & flag & info [ "optimize"; "O" ]
         ~doc:"Run the source-level optimizer (folding, identities, strength reduction).")

let fold_arg =
  Arg.(value & flag & info [ "fold-branches" ]
         ~doc:"Merge branch tests into the preceding state when safe \
               (saves one cycle per executed branch).")

let mem_arg =
  Arg.(value & opt_all string [] & info [ "mem" ] ~docv:"NAME=FILE"
         ~doc:"Initialize memory $(i,NAME) from memory file $(i,FILE). Repeatable.")

let out_dir_arg =
  Arg.(value & opt string "out" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")

let vcd_arg =
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE"
         ~doc:"Dump a VCD waveform of the (first) configuration.")

let max_cycles_arg =
  Arg.(value & opt int 10_000_000 & info [ "max-cycles" ] ~docv:"N"
         ~doc:"Abort a configuration after N clock cycles.")

(* --- compile ----------------------------------------------------------- *)

let cmd_compile =
  let deep_gate_arg =
    Arg.(value & flag & info [ "deep-gate" ]
           ~doc:"Also gate the compile on the abstract-interpretation \
                 provers: abort when they prove a defect (out-of-bounds \
                 store, dynamically closing combinational cycle, ...).")
  in
  let run src share optimize fold deep_gate dir =
    handle_errors (fun () ->
        let compiled =
          Compiler.Compile.compile ~options:(options_of share optimize fold)
            ~deep_gate (parse_program src)
        in
        let artifacts = Testinfra.Flow.emit_all ~dir compiled in
        List.iter
          (fun (a : Testinfra.Flow.artifact) ->
            Printf.printf "wrote %s (%s)\n" (Filename.concat dir a.Testinfra.Flow.path)
              a.Testinfra.Flow.description)
          artifacts)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a program and emit every artifact (XML, dot, code, HDL).")
    Term.(
      const run $ src_arg $ share_arg $ optimize_arg $ fold_arg
      $ deep_gate_arg $ out_dir_arg)

(* --- simulate ---------------------------------------------------------- *)

let cmd_simulate =
  let run src share optimize fold mems vcd max_cycles dir =
    handle_errors (fun () ->
        let prog = parse_program src in
        let compiled =
          Compiler.Compile.compile ~options:(options_of share optimize fold) prog
        in
        let inits = inits_of_specs mems in
        let lookup, stores = Testinfra.Verify.memory_env prog ~inits in
        let rtg_run =
          match vcd with
          | Some path ->
              (* Dump the first configuration's waveform, then sequence the
                 remaining configurations normally (memories persist). *)
              let first = List.hd compiled.Compiler.Compile.partitions in
              let rest = List.tl compiled.Compiler.Compile.partitions in
              let run1 =
                Testinfra.Simulate.run_configuration ~vcd_path:path ~max_cycles
                  ~memories:lookup first.Compiler.Compile.datapath
                  first.Compiler.Compile.fsm
              in
              Printf.printf "VCD of %s written to %s\n"
                run1.Testinfra.Simulate.cfg_name path;
              let rest_runs =
                if run1.Testinfra.Simulate.completed then
                  List.map
                    (fun (p : Compiler.Compile.partition) ->
                      Testinfra.Simulate.run_configuration ~max_cycles
                        ~memories:lookup p.Compiler.Compile.datapath
                        p.Compiler.Compile.fsm)
                    rest
                else []
              in
              let runs = run1 :: rest_runs in
              {
                Testinfra.Simulate.runs;
                all_completed =
                  List.length runs
                  = List.length compiled.Compiler.Compile.partitions
                  && List.for_all
                       (fun r -> r.Testinfra.Simulate.completed)
                       runs;
                total_cycles =
                  List.fold_left
                    (fun acc r -> acc + r.Testinfra.Simulate.cycles)
                    0 runs;
                total_wall_seconds =
                  List.fold_left
                    (fun acc r -> acc +. r.Testinfra.Simulate.wall_seconds)
                    0. runs;
                budget_failure = None;
              }
          | None ->
              Testinfra.Simulate.run_compiled ~max_cycles ~memories:lookup compiled
        in
        List.iter
          (fun (r : Testinfra.Simulate.config_run) ->
            Printf.printf "configuration %s: %s, %d cycles (%.3fs)\n"
              r.Testinfra.Simulate.cfg_name
              (if r.Testinfra.Simulate.completed then "completed" else "INCOMPLETE")
              r.Testinfra.Simulate.cycles r.Testinfra.Simulate.wall_seconds)
          rtg_run.Testinfra.Simulate.runs;
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (name, store) ->
            let path = Filename.concat dir (name ^ ".mem") in
            Testinfra.Memfile.save store path;
            Printf.printf "memory %s -> %s\n" name path)
          stores)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate the compiled architecture over memory files.")
    Term.(
      const run $ src_arg $ share_arg $ optimize_arg $ fold_arg $ mem_arg
      $ vcd_arg $ max_cycles_arg $ out_dir_arg)

(* --- verify ------------------------------------------------------------ *)

let cmd_verify =
  let run src share optimize fold mems max_cycles =
    handle_errors (fun () ->
        let outcome =
          Testinfra.Verify.run_source ~options:(options_of share optimize fold)
            ~max_cycles ~inits:(inits_of_specs mems) (read_file src)
        in
        print_string (Testinfra.Report.verification_to_string outcome);
        exit (if outcome.Testinfra.Verify.passed then 0 else 1))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run golden software and simulated hardware, then compare memories.")
    Term.(const run $ src_arg $ share_arg $ optimize_arg $ fold_arg $ mem_arg $ max_cycles_arg)

(* --- dot / verilog / vhdl ---------------------------------------------- *)

let xml_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"XML" ~doc:"Dialect document.")

let load_dialect path =
  let doc = Xmlkit.Xml_parser.parse_file path in
  match doc with
  | Xmlkit.Xml.Element { Xmlkit.Xml.tag = "datapath"; _ } ->
      `Datapath (Netlist.Datapath.of_xml doc)
  | Xmlkit.Xml.Element { Xmlkit.Xml.tag = "fsm"; _ } -> `Fsm (Fsmkit.Fsm.of_xml doc)
  | Xmlkit.Xml.Element { Xmlkit.Xml.tag = "rtg"; _ } -> `Rtg (Rtg.of_xml doc)
  | Xmlkit.Xml.Element { Xmlkit.Xml.tag; _ } ->
      failwith (Printf.sprintf "unknown dialect <%s>" tag)
  | Xmlkit.Xml.Text _ -> failwith "not an XML element"

let cmd_dot =
  let run path =
    handle_errors (fun () ->
        let g =
          match load_dialect path with
          | `Datapath dp -> Transform.To_dot.datapath dp
          | `Fsm fsm -> Transform.To_dot.fsm fsm
          | `Rtg rtg -> Transform.To_dot.rtg rtg
        in
        print_string (Dotkit.Dot.to_string g))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Translate a dialect XML document to Graphviz dot (stdout).")
    Term.(const run $ xml_arg)

let hdl_cmd name doc dp_of fsm_of =
  let dp_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DATAPATH_XML" ~doc:"Datapath document.")
  in
  let fsm_arg =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"FSM_XML" ~doc:"FSM document (optional).")
  in
  let run dp_path fsm_path =
    handle_errors (fun () ->
        let dp = Netlist.Datapath.load dp_path in
        match fsm_path with
        | None -> print_string (dp_of dp)
        | Some fp ->
            let fsm = Fsmkit.Fsm.load fp in
            print_string (fsm_of dp fsm))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ dp_arg $ fsm_arg)

let cmd_verilog =
  hdl_cmd "verilog" "Emit Verilog for a datapath (plus FSM and top when given)."
    Hdl.Verilog.datapath Hdl.Verilog.system

let cmd_vhdl =
  hdl_cmd "vhdl" "Emit VHDL for a datapath (plus FSM and top when given)."
    Hdl.Vhdl.datapath Hdl.Vhdl.system

let cmd_systemc =
  hdl_cmd "systemc" "Emit SystemC for a datapath (plus FSM and top when given)."
    Hdl.Systemc.datapath Hdl.Systemc.system

(* --- metrics ------------------------------------------------------------ *)

let cmd_metrics =
  let run src share optimize fold mems =
    handle_errors (fun () ->
        let source = read_file src in
        let outcome =
          Testinfra.Verify.run_source ~options:(options_of share optimize fold)
            ~inits:(inits_of_specs mems) source
        in
        let row = Testinfra.Metrics.collect ~source outcome in
        print_string (Testinfra.Metrics.render_table [ row ]))
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Print the Table-I metrics row for a program.")
    Term.(const run $ src_arg $ share_arg $ optimize_arg $ fold_arg $ mem_arg)

(* --- run (simulate a bundle of XML documents) ----------------------------- *)

let cmd_run =
  let bundle_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"BUNDLE_DIR"
           ~doc:"Directory containing one *_rtg.xml plus the referenced \
                 datapath/FSM documents (e.g. written by the compile \
                 subcommand).")
  in
  let run dir mems out_dir max_cycles =
    handle_errors (fun () ->
        let bundle = Testinfra.Bundle.load ~dir in
        let inits = inits_of_specs mems in
        let stores =
          List.map
            (fun (name, size, width) ->
              let store = Operators.Memory.create ~name ~width size in
              (match List.assoc_opt name inits with
              | Some words -> Operators.Memory.load store words
              | None -> ());
              (name, store))
            (Testinfra.Bundle.memories_of_bundle bundle)
        in
        let lookup name =
          match List.assoc_opt name stores with
          | Some s -> s
          | None -> failwith (Printf.sprintf "bundle references no memory %S" name)
        in
        let result =
          Testinfra.Bundle.simulate ~max_cycles ~memories:lookup bundle
        in
        List.iter
          (fun (r : Testinfra.Simulate.config_run) ->
            Printf.printf "configuration %s: %s, %d cycles (%.3fs)\n"
              r.Testinfra.Simulate.cfg_name
              (if r.Testinfra.Simulate.completed then "completed" else "INCOMPLETE")
              r.Testinfra.Simulate.cycles r.Testinfra.Simulate.wall_seconds)
          result.Testinfra.Simulate.runs;
        if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
        List.iter
          (fun (name, store) ->
            let path = Filename.concat out_dir (name ^ ".mem") in
            Testinfra.Memfile.save store path;
            Printf.printf "memory %s -> %s\n" name path)
          stores;
        exit (if result.Testinfra.Simulate.all_completed then 0 else 1))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Simulate a design straight from its XML documents (no source \
             program needed — the dialects are the interchange format).")
    Term.(const run $ bundle_arg $ mem_arg $ out_dir_arg $ max_cycles_arg)

(* --- suite --------------------------------------------------------------- *)

let cmd_suite =
  let dir_arg =
    Arg.(value & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Directory of <name>.alg cases with <name>.<memory>.mem \
                 stimuli; the built-in workload suite runs when omitted.")
  in
  let all_variants_arg =
    Arg.(value & flag & info [ "all-variants" ]
           ~doc:"Verify each case under plain, operator-sharing and \
                 optimized compilation (default: plain only).")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Fan the (case, variant) verifications out over N worker \
                 domains. The report is identical for any N.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"Checkpoint each completed (case, variant) verification \
                 to an append-only JSONL journal as it finishes.")
  in
  let resume_arg =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"With --journal, reload the journal, replay the recorded \
                 verifications, and execute only the remainder (the \
                 journal must have been written for the same cases and \
                 variants).")
  in
  let run dir all_variants jobs journal resume =
    handle_errors (fun () ->
        if jobs < 1 then begin
          Printf.eprintf "error: --jobs must be >= 1 (got %d)\n" jobs;
          exit 1
        end;
        if resume && journal = None then begin
          Printf.eprintf "error: --resume requires --journal FILE\n";
          exit 1
        end;
        let cases =
          match dir with
          | Some dir -> Testinfra.Suite.load_dir dir
          | None -> Testinfra.Suite.builtin_cases ()
        in
        let variants =
          if all_variants then Testinfra.Suite.default_variants
          else [ List.hd Testinfra.Suite.default_variants ]
        in
        let cancel = Testinfra.Budget.token () in
        Testinfra.Budget.install_sigint cancel;
        let results =
          Testinfra.Suite.run ~variants ~jobs ~cancel ?journal_path:journal
            ~resume cases
        in
        print_string (Testinfra.Suite.render results);
        let summary = snd results in
        if summary.Testinfra.Suite.cancelled > 0 then exit 130;
        exit (if summary.Testinfra.Suite.failures = [] then 0 else 1))
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Verify a whole regression suite of programs (the paper's \
             complete-test-suite use case).")
    Term.(
      const run $ dir_arg $ all_variants_arg $ jobs_arg $ journal_arg
      $ resume_arg)

(* --- lint ---------------------------------------------------------------- *)

let cmd_lint =
  let paths_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"PATH"
           ~doc:"A dialect XML document, or a bundle directory (one \
                 *_rtg.xml plus the referenced documents).")
  in
  let builtin_arg =
    Arg.(value & flag & info [ "builtin" ]
           ~doc:"Compile every built-in workload kernel under every \
                 compiler variant and lint the generated bundles.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
  in
  let deep_arg =
    Arg.(value & flag & info [ "deep" ]
           ~doc:"Run the abstract-interpretation provers on every bundle: \
                 memory bounds, read-before-write, division by zero, \
                 truncation, and per-state resolution of mux-broken \
                 combinational loops (AI0xx diagnostics).")
  in
  let fix_arg =
    Arg.(value & flag & info [ "fix" ]
           ~doc:"Rewrite the fixable diagnostics of each bundle directory: \
                 remove unused controls (DP015) together with the FSM \
                 outputs driving them (XL008). Writes <name>.fixed.xml \
                 next to the originals unless --in-place.")
  in
  let in_place_arg =
    Arg.(value & flag & info [ "in-place" ]
           ~doc:"With --fix, overwrite the original documents instead of \
                 writing <name>.fixed.xml copies.")
  in
  let guard_limit_arg =
    Arg.(value & opt int Lint.guard_space_limit & info [ "guard-limit" ]
           ~docv:"N"
           ~doc:"Assignment-count cap for the per-state guard analyses \
                 (BND002 reports states that exceed it).")
  in
  let no_timing_arg =
    Arg.(value & flag & info [ "no-timing" ]
           ~doc:"Report analysis wall times as 0 (deterministic output, \
                 e.g. for golden snapshots).")
  in
  let deep_json diags (analyses : Lint.analysis list) =
    let diag_json = Diag.to_json diags in
    let diag_json =
      (* embed: drop the trailing newline of the array rendering *)
      String.trim diag_json
    in
    let analysis_json =
      match analyses with
      | [] -> "[]"
      | al ->
          "[\n"
          ^ String.concat ",\n"
              (List.map
                 (fun (a : Lint.analysis) ->
                   Printf.sprintf
                     "    { \"configuration\": %S, \"seconds\": %.6f, \
                      \"iterations\": %d }"
                     a.Lint.cfg a.Lint.seconds a.Lint.fixpoint_iterations)
                 al)
          ^ "\n  ]"
    in
    Printf.sprintf "{\n  \"diagnostics\": %s,\n  \"analysis\": %s\n}\n"
      diag_json analysis_json
  in
  let run paths builtin json deep fix in_place guard_limit no_timing =
    handle_errors (fun () ->
        let guard_limit = Some guard_limit in
        if fix then begin
          if builtin then
            failwith "--fix applies to bundle directories, not --builtin";
          let dirs =
            List.filter
              (fun p -> Sys.file_exists p && Sys.is_directory p)
              paths
          in
          if dirs = [] then failwith "--fix needs bundle directories";
          let any_error = ref false in
          List.iter
            (fun dir ->
              match Lint.fix_dir ?guard_limit ~in_place dir with
              | Error diags ->
                  print_string (Diag.render diags);
                  any_error := true
              | Ok fix ->
                  let count sel ds = List.length (sel ds) in
                  Printf.printf
                    "%s: %d error(s), %d warning(s) -> %d error(s), %d \
                     warning(s)\n"
                    dir
                    (count Diag.errors fix.Lint.before)
                    (count Diag.warnings fix.Lint.before)
                    (count Diag.errors fix.Lint.after)
                    (count Diag.warnings fix.Lint.after);
                  List.iter
                    (fun (doc, removed) ->
                      Printf.printf "  %s: removed %s\n" doc
                        (String.concat ", " removed))
                    fix.Lint.removed_controls;
                  List.iter
                    (fun p -> Printf.printf "  wrote %s\n" p)
                    fix.Lint.fixed_paths;
                  if fix.Lint.fixed_paths = [] then
                    Printf.printf "  nothing to fix\n";
                  if Lint.has_errors fix.Lint.after then any_error := true)
            dirs;
          exit (if !any_error then 1 else 0)
        end;
        let shallow_of path =
          if Sys.file_exists path && Sys.is_directory path then
            Lint.run_dir ?guard_limit path
          else Lint.run_file ?guard_limit path
        in
        let path_results =
          List.map
            (fun path ->
              if deep && Sys.file_exists path && Sys.is_directory path then
                let d = Lint.run_deep_dir ?guard_limit path in
                (d.Lint.deep_diags, d.Lint.analyses)
              else (shallow_of path, []))
            paths
        in
        let builtin_results =
          if not builtin then []
          else
            List.concat_map
              (fun (case : Testinfra.Suite.case) ->
                List.map
                  (fun (variant_name, options) ->
                    let compiled =
                      Compiler.Compile.compile ~options
                        (Lang.Parser.parse_string case.Testinfra.Suite.source)
                    in
                    let label =
                      Printf.sprintf "%s/%s" case.Testinfra.Suite.case_name
                        variant_name
                    in
                    (* The emitted HDL is linted too: the backends are
                       string emitters, so a broken emission would
                       otherwise only surface in a synthesis tool. *)
                    let hdl_diags =
                      List.concat_map
                        (fun (p : Compiler.Compile.partition) ->
                          let dp = p.Compiler.Compile.datapath in
                          let fsm = p.Compiler.Compile.fsm in
                          Lint.prefix (label ^ "/verilog")
                            (Hdl.Hdllint.verilog (Hdl.Verilog.system dp fsm))
                          @ Lint.prefix (label ^ "/vhdl")
                              (Hdl.Hdllint.vhdl (Hdl.Vhdl.system dp fsm)))
                        compiled.Compiler.Compile.partitions
                    in
                    if deep then
                      let d = Compiler.Compile.lint_deep compiled in
                      ( Lint.prefix label d.Lint.deep_diags @ hdl_diags,
                        List.map
                          (fun (a : Lint.analysis) ->
                            {
                              a with
                              Lint.cfg = label ^ "/" ^ a.Lint.cfg;
                            })
                          d.Lint.analyses )
                    else
                      ( Lint.prefix label (Compiler.Compile.lint compiled)
                        @ hdl_diags,
                        [] ))
                  Testinfra.Suite.default_variants)
              (Testinfra.Suite.builtin_cases ())
        in
        let results = path_results @ builtin_results in
        let diags = List.concat_map fst results in
        let analyses = List.concat_map snd results in
        let analyses =
          if no_timing then
            List.map (fun a -> { a with Lint.seconds = 0. }) analyses
          else analyses
        in
        if json then
          if deep then print_string (deep_json diags analyses)
          else print_string (Diag.to_json diags)
        else begin
          print_string (Diag.render diags);
          List.iter
            (fun (a : Lint.analysis) ->
              Printf.printf "analysis %s: %d iterations (%.4fs)\n" a.Lint.cfg
                a.Lint.fixpoint_iterations a.Lint.seconds)
            analyses;
          if builtin && diags = [] then
            print_string "all builtin workload bundles are lint-clean\n"
        end;
        exit (if Lint.has_errors diags then 1 else 0))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze dialect documents and bundles: structural \
             validity, combinational loops, dead logic, FSM reachability, \
             guard satisfiability, and FSM/datapath/RTG cross-links — plus \
             the abstract-interpretation provers with --deep and mechanical \
             rewrites with --fix. Exits non-zero when any error-severity \
             diagnostic fires.")
    Term.(
      const run $ paths_arg $ builtin_arg $ json_arg $ deep_arg $ fix_arg
      $ in_place_arg $ guard_limit_arg $ no_timing_arg)

(* --- fuzz ---------------------------------------------------------------- *)

let cmd_fuzz =
  let n_arg =
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N"
           ~doc:"Number of random programs to generate and cross-check.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; program $(i,i) is deterministic in \
                 (SEED, $(i,i)) so any divergence is replayable.")
  in
  let backends_arg =
    Arg.(value & opt string "event,cyclesim,fastsim"
         & info [ "backends" ] ~docv:"LIST"
             ~doc:"Comma-separated backends to cross-check: event, \
                   cyclesim, fastsim. The event-driven simulator is the \
                   hardware reference and must be included; the golden \
                   interpreter always runs.")
  in
  let max_shrink_arg =
    Arg.(value & opt int 1500 & info [ "max-shrink" ] ~docv:"N"
           ~doc:"Bound on shrink candidates evaluated per divergence.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR"
           ~doc:"Write each minimized divergent program to DIR as a \
                 commented .alg reproducer (created if missing).")
  in
  let replay_arg =
    Arg.(value & opt (some dir) None & info [ "replay" ] ~docv:"DIR"
           ~doc:"Instead of generating, re-run the oracle over every \
                 .alg file in DIR (the committed corpus); exits non-zero \
                 unless all entries agree.")
  in
  let fuzz_max_cycles_arg =
    Arg.(value & opt int 200_000 & info [ "max-cycles" ] ~docv:"N"
           ~doc:"Per-backend clock-cycle bound for each program.")
  in
  let shrink_class_arg =
    Arg.(value & opt (some string) None
         & info [ "shrink-class" ] ~docv:"CLASS"
             ~doc:"Divergence class the shrinker must preserve when a \
                   program exhibits several (e.g. $(b,share/tv/share) to \
                   minimize a validator alarm); default: the \
                   lexicographically first class.")
  in
  let run n seed backends max_shrink out replay max_cycles shrink_class =
    handle_errors (fun () ->
        if n < 1 then begin
          Printf.eprintf "error: -n must be >= 1 (got %d)\n" n;
          exit 1
        end;
        if max_shrink < 0 then begin
          Printf.eprintf "error: --max-shrink must be >= 0 (got %d)\n"
            max_shrink;
          exit 1
        end;
        if max_cycles < 1 then begin
          Printf.eprintf "error: --max-cycles must be >= 1 (got %d)\n"
            max_cycles;
          exit 1
        end;
        let backends =
          let names = String.split_on_char ',' backends in
          let parsed =
            List.map
              (fun name ->
                match Fuzz.Oracle.backend_of_string (String.trim name) with
                | Some b -> b
                | None ->
                    Printf.eprintf
                      "error: unknown backend %S (expected event, cyclesim \
                       or fastsim)\n"
                      name;
                    exit 1)
              names
          in
          if not (List.mem Fuzz.Oracle.Event parsed) then begin
            Printf.eprintf
              "error: --backends must include event (the hardware \
               reference)\n";
            exit 1
          end;
          parsed
        in
        match replay with
        | Some dir ->
            let results =
              Fuzz.Driver.replay ~backends ~max_cycles ~dir ()
            in
            if results = [] then begin
              Printf.eprintf "error: no .alg files in %s\n" dir;
              exit 1
            end;
            let bad = ref 0 in
            List.iter
              (fun (file, verdict) ->
                match verdict with
                | Fuzz.Oracle.Agree ->
                    Printf.printf "agree    %s\n" file
                | Fuzz.Oracle.Rejected reason ->
                    incr bad;
                    Printf.printf "rejected %s: %s\n" file reason
                | Fuzz.Oracle.Diverged ds ->
                    incr bad;
                    Printf.printf "DIVERGED %s: %s\n" file
                      (String.concat ", "
                         (Fuzz.Oracle.classes (Fuzz.Oracle.Diverged ds))))
              results;
            Printf.printf "%d corpus entries, %d disagree\n"
              (List.length results) !bad;
            exit (if !bad = 0 then 0 else 1)
        | None ->
            let progress line = Printf.eprintf "%s\n%!" line in
            let stats =
              Fuzz.Driver.run ~n ~seed ~backends ~max_shrink ~max_cycles
                ?shrink_class ?out_dir:out ~progress ()
            in
            Printf.printf
              "fuzz: %d programs (seed %d): %d agreed, %d rejected, %d \
               divergent (%.1f programs/s)\n"
              stats.Fuzz.Driver.requested seed stats.Fuzz.Driver.agreed
              stats.Fuzz.Driver.rejected
              (List.length stats.Fuzz.Driver.divergences)
              (Fuzz.Driver.programs_per_second stats);
            List.iter
              (fun (d : Fuzz.Driver.divergence_report) ->
                Printf.printf "  program %d: %s (%s), %d -> %d nodes%s\n"
                  d.Fuzz.Driver.index d.Fuzz.Driver.d_class
                  d.Fuzz.Driver.detail d.Fuzz.Driver.original_size
                  d.Fuzz.Driver.shrunk_size
                  (match d.Fuzz.Driver.file with
                  | Some f -> Printf.sprintf " -> %s" f
                  | None -> ""))
              stats.Fuzz.Driver.divergences;
            exit (if stats.Fuzz.Driver.divergences = [] then 0 else 1))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential compiler fuzzing: random programs through the \
             golden interpreter and every admissible backend, diffing \
             memories, cycles, checks and out-of-range counters; \
             divergences are shrunk to minimal .alg reproducers.")
    Term.(
      const run $ n_arg $ seed_arg $ backends_arg $ max_shrink_arg $ out_arg
      $ replay_arg $ fuzz_max_cycles_arg $ shrink_class_arg)

(* --- tv ------------------------------------------------------------------ *)

let cmd_tv =
  let paths_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"PROGRAM"
           ~doc:"Source program files to certify.")
  in
  let builtin_arg =
    Arg.(value & flag & info [ "builtin" ]
           ~doc:"Certify every built-in workload kernel instead of files.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit certificates as JSON.")
  in
  let no_timing_arg =
    Arg.(value & flag & info [ "no-timing" ]
           ~doc:"Report validator wall times as 0 (deterministic output, \
                 e.g. for golden snapshots).")
  in
  let max_pairs_arg =
    Arg.(value & opt int Tv.default_bounds.Tv.max_pairs
         & info [ "max-pairs" ] ~docv:"N"
             ~doc:"Simulation-relation position pairs the source search \
                   may explore before reporting inconclusive.")
  in
  let max_nodes_arg =
    Arg.(value & opt int Tv.default_bounds.Tv.max_nodes
         & info [ "max-nodes" ] ~docv:"N"
             ~doc:"Symbolic cone nodes extracted per state before the \
                   hardware check reports inconclusive.")
  in
  let samples_arg =
    Arg.(value & opt int Tv.default_bounds.Tv.samples
         & info [ "samples" ] ~docv:"N"
             ~doc:"Concrete samples per semantic comparison.")
  in
  let max_conflicts_arg =
    Arg.(value & opt int Tv.default_bounds.Tv.max_conflicts
         & info [ "max-conflicts" ] ~docv:"N"
             ~doc:"SAT conflicts per equivalence query before the \
                   certificate reports inconclusive.")
  in
  (* Each transforming pass must be certified at least once in isolation
     and once composed with the others — "plain" has nothing to
     validate, so it is not a variant here. *)
  let tv_variants =
    [
      ("optimized", options_of false true false);
      ("shared", options_of true false false);
      ("folded", options_of false false true);
      ("all", options_of true true true);
    ]
  in
  let run paths builtin json no_timing max_pairs max_nodes samples
      max_conflicts =
    handle_errors (fun () ->
        if paths = [] && not builtin then
          failwith "nothing to certify: pass program files or --builtin";
        if max_pairs < 1 then
          failwith
            (Printf.sprintf "--max-pairs must be >= 1 (got %d)" max_pairs);
        if max_nodes < 1 then
          failwith
            (Printf.sprintf "--max-nodes must be >= 1 (got %d)" max_nodes);
        if samples < 1 then
          failwith
            (Printf.sprintf "--samples must be >= 1 (got %d)" samples);
        if max_conflicts < 1 then
          failwith
            (Printf.sprintf "--max-conflicts must be >= 1 (got %d)"
               max_conflicts);
        let bounds = { Tv.max_pairs; max_nodes; samples; max_conflicts } in
        let sources =
          List.map
            (fun p ->
              (Filename.remove_extension (Filename.basename p),
               parse_program p))
            paths
          @ (if not builtin then []
             else
               List.map
                 (fun (c : Testinfra.Suite.case) ->
                   ( c.Testinfra.Suite.case_name,
                     Lang.Parser.parse_string c.Testinfra.Suite.source ))
                 (Testinfra.Suite.builtin_cases ()))
        in
        let reports =
          List.concat_map
            (fun (name, prog) ->
              List.concat_map
                (fun (vname, options) ->
                  let compiled = Compiler.Compile.compile ~options prog in
                  let label = Printf.sprintf "%s/%s" name vname in
                  List.map
                    (fun r -> (label, r))
                    (Compiler.Compile.certify ~bounds compiled))
                tv_variants)
            sources
        in
        let reports =
          if no_timing then
            List.map
              (fun (l, (r : Tv.report)) -> (l, { r with Tv.seconds = 0. }))
              reports
          else reports
        in
        let verdict (r : Tv.report) =
          match r.Tv.cert with
          | Tv.Proved -> "proved"
          | Tv.Refuted _ -> "refuted"
          | Tv.Inconclusive _ -> "inconclusive"
        in
        let detail (r : Tv.report) =
          match r.Tv.cert with
          | Tv.Proved -> None
          | Tv.Refuted { witness } -> Some witness
          | Tv.Inconclusive { bound } -> Some bound
        in
        if json then begin
          print_string "[\n";
          print_string
            (String.concat ",\n"
               (List.map
                  (fun (label, (r : Tv.report)) ->
                    Printf.sprintf
                      "  { \"label\": %S, \"configuration\": %S, \"pass\": \
                       %S, \"verdict\": %S%s, \"seconds\": %.6f }"
                      label r.Tv.partition
                      (Tv.pass_name r.Tv.pass)
                      (verdict r)
                      (match detail r with
                      | None -> ""
                      | Some d -> Printf.sprintf ", \"detail\": %S" d)
                      r.Tv.seconds)
                  reports));
          print_string "\n]\n"
        end
        else begin
          List.iter
            (fun (label, (r : Tv.report)) ->
              Printf.printf "%-12s %s / configuration %s / pass %s (%.4fs)%s\n"
                (verdict r) label r.Tv.partition
                (Tv.pass_name r.Tv.pass)
                r.Tv.seconds
                (match detail r with None -> "" | Some d -> ": " ^ d))
            reports;
          let count pred =
            List.length (List.filter (fun (_, r) -> pred r) reports)
          in
          Printf.printf
            "%d certificate(s): %d proved, %d refuted, %d inconclusive\n"
            (List.length reports)
            (count (fun r -> r.Tv.cert = Tv.Proved))
            (count (fun r ->
                 match r.Tv.cert with Tv.Refuted _ -> true | _ -> false))
            (count (fun r ->
                 match r.Tv.cert with Tv.Inconclusive _ -> true | _ -> false))
        end;
        exit
          (if List.for_all (fun (_, r) -> r.Tv.cert = Tv.Proved) reports
           then 0
           else 1))
  in
  Cmd.v
    (Cmd.info "tv"
       ~doc:"Translation validation: compile each program under every \
             transforming-pass variant and certify each enabled pass \
             equivalent to its input (simulation relation at source \
             level, lockstep or stuttering FSMD product at hardware \
             level). Every semantic comparison is settled by a \
             bit-blasted SAT query, so \"proved\" means equivalent for \
             every input. Exits non-zero unless every certificate is \
             proved.")
    Term.(
      const run $ paths_arg $ builtin_arg $ json_arg $ no_timing_arg
      $ max_pairs_arg $ max_nodes_arg $ samples_arg $ max_conflicts_arg)

(* --- campaign ------------------------------------------------------------ *)

(* The mutation campaign: inject seeded faults into a compiled workload
   and report which ones the verification flow kills. Three
   personalities behind one flag surface:
   - the single-process campaign (default), which can checkpoint to a
     journal, stop after N entries and resume from the journal;
   - the sharded coordinator (--shards N): splits the plan, re-execs
     this binary as `fpgatest campaign --worker ...` processes
     ([Testinfra.Shard.worker_args] is the wire format), watches,
     respawns and quarantines them, and merges their journal shards into
     a report byte-identical to a single-process run — optionally under
     a deterministic chaos schedule (--chaos SEED);
   - a worker (--worker, spawned by the coordinator; not for direct
     use): runs one shard's slice against its own journal.

   Exit codes: 0 done (a scripted --stop-after included), 1 bad flag or
   error, 3 partial report (quarantined shards), 130 interrupted. *)

(* Flag combinations only the command line can get wrong. Every range
   check on a campaign parameter lives in the library
   ([Faultcamp.validate_params], [Shard.validate]) and fails before
   anything runs or is spawned; [handle_errors] prints it as one line. *)
let check_campaign_flags ~shards ~chaos ~resume ~stop_after ~worker
    ~shard_index ~shard_count ~chaos_exec =
  match (shards, chaos) with
  | None, Some _ ->
      failwith
        "--chaos requires --shards (the chaos schedule disrupts the \
         coordinator's workers)"
  | Some _, _ when resume <> None ->
      failwith
        "--resume cannot be combined with --shards (worker shards resume \
         their own journals automatically)"
  | Some _, _ when stop_after <> None ->
      failwith "--stop-after cannot be combined with --shards"
  | _ ->
      if worker && shard_count = None then
        failwith
          "--worker requires --shard-count (and --shard-index and \
           --journal): it is spawned by the coordinator, not run by hand"
      else if worker && shard_index = None then
        failwith "--worker requires --shard-index"
      else if (not worker) && chaos_exec <> None then
        failwith "--chaos-exec is a worker-protocol flag (requires --worker)"

let find_campaign_case workload =
  match Testinfra.Faultcamp.find_workload workload with
  | Some case -> case
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (try --list for the catalogue)"
           workload)

let run_campaign_worker ~workload ~seed ~faults ~factor ~jobs ~backend
    ~deadline ~slice ~retries ~backoff ~profile ~journal ~shard_index
    ~shard_count ~chaos_exec ~baseline =
  let journal_path =
    match journal with
    | Some p -> p
    | None -> failwith "--worker requires --journal"
  in
  let chaos_exec =
    Option.map
      (fun label ->
        match Testinfra.Chaos.disruption_of_label label with
        | Some d -> d
        | None ->
            failwith
              (Printf.sprintf "unknown --chaos-exec disruption %S" label))
      chaos_exec
  in
  let baseline =
    Option.map
      (fun s ->
        match Testinfra.Faultcamp.baseline_of_string s with
        | Some b -> b
        | None ->
            failwith
              (Printf.sprintf
                 "malformed --baseline %S (expected cycles:oob:hash)" s))
      baseline
  in
  exit
    (Testinfra.Shard.worker ~workload ~seed ~faults ~max_cycles_factor:factor
       ~jobs ~backend ~deadline_seconds:deadline ~slice_cycles:slice
       ~max_retries:retries ~backoff_seconds:backoff ~deadline_profile:profile
       ~shard_index ~shard_count ~journal_path ~baseline ~chaos_exec ())

let run_campaign_sharded ~cancel (cfg : Testinfra.Shard.config) ~verbose =
  match Testinfra.Shard.run ~cancel cfg with
  | result ->
      print_string (Testinfra.Shard.render ~verbose result);
      Printf.eprintf "%s\n" (Testinfra.Shard.timing result);
      Printf.eprintf "%s\n"
        (Testinfra.Metrics.campaign_timing result.Testinfra.Shard.campaign);
      (* Exit 3: the campaign survived worker failures but had to
         surrender quarantined slices — a partial (INCOMPLETE) report,
         distinct from flag errors (1) and interrupts (130). *)
      if Testinfra.Shard.quarantined result > 0 then exit 3
  | exception Failure msg when Testinfra.Budget.cancel_requested cancel ->
      Printf.eprintf "%s\n" msg;
      exit 130

let cmd_campaign =
  let workload_arg =
    Arg.(value & opt string "gcd8"
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Workload to mutate (see --list).")
  in
  let faults_arg =
    Arg.(value & opt int 25
         & info [ "n"; "faults" ] ~docv:"N" ~doc:"Number of faults to plan.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Campaign seed; the same seed reproduces the identical \
                   plan and outcomes.")
  in
  let factor_arg =
    Arg.(value & opt int 4
         & info [ "max-cycles-factor" ] ~docv:"K"
             ~doc:"Mutant cycle budget as a multiple of the clean run.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"JOBS"
             ~doc:"Worker domains executing mutants in parallel (per worker \
                   process under --shards). The report is identical at any \
                   value; only wall-clock changes.")
  in
  let backend_arg =
    let backend_conv =
      Arg.enum
        [
          ("auto", Testinfra.Faultcamp.Auto);
          ("interp", Testinfra.Faultcamp.Interp);
          ("compiled", Testinfra.Faultcamp.Compiled);
        ]
    in
    Arg.(value & opt backend_conv Testinfra.Faultcamp.Auto
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Mutant evaluator: $(b,interp) runs one event-driven \
                   simulation per mutant (the reference); $(b,compiled) \
                   packs mutants into bit-lanes of a compiled evaluator \
                   (orders of magnitude faster, requires the design's \
                   combinational logic to be provably acyclic); $(b,auto) \
                   picks compiled when admissible and validated against the \
                   reference, the interpreter otherwise. The report is \
                   identical either way; only throughput changes. Resumed \
                   campaigns take the backend from the journal header.")
  in
  let deadline_arg =
    Arg.(value & opt float Testinfra.Faultcamp.default_deadline_seconds
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Wall-clock watchdog per mutant attempt; a hung mutant is \
                   classified as a wall timeout instead of simulating out \
                   its whole cycle budget. 0 disables the watchdog.")
  in
  let profile_arg =
    Arg.(value & opt string ""
         & info [ "deadline-profile" ] ~docv:"CLASS=SECONDS,..."
             ~doc:"Per-fault-class wall deadlines overriding --deadline, \
                   e.g. $(b,fsm-retarget=5,mem-corrupt=0.5). 0 disables the \
                   watchdog for that class. Classes not listed keep \
                   --deadline. Validated up front; recorded in the journal \
                   header and restored on --resume.")
  in
  let slice_arg =
    Arg.(value & opt int Testinfra.Faultcamp.default_slice_cycles
         & info [ "slice" ] ~docv:"CYCLES"
             ~doc:"Watchdog granularity: clock cycles simulated between \
                   deadline/cancellation checks.")
  in
  let retries_arg =
    Arg.(value & opt int Testinfra.Faultcamp.default_max_retries
         & info [ "retries" ] ~docv:"N"
             ~doc:"Crash retries per mutant (exponential backoff). A mutant \
                   crashing identically twice is quarantined immediately.")
  in
  let backoff_arg =
    Arg.(value & opt float Testinfra.Faultcamp.default_backoff_seconds
         & info [ "backoff" ] ~docv:"SECONDS"
             ~doc:"Initial retry backoff; doubles per retry.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Checkpoint completed mutants to an append-only JSONL \
                   journal as they finish; an interrupted campaign restarts \
                   from it with --resume.")
  in
  let resume_arg =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Resume an interrupted campaign from its journal: replay \
                   the recorded results, execute only the remaining mutants \
                   (appending them to the same journal), and print a report \
                   identical to an uninterrupted run. Campaign parameters \
                   come from the journal header; workload/seed flags are \
                   ignored. The journal is compacted in place first when it \
                   has accreted duplicates, heartbeats or stale footers.")
  in
  let stop_after_arg =
    Arg.(value & opt (some int) None
         & info [ "stop-after" ] ~docv:"N"
             ~doc:"Testing hook: request a graceful shutdown after N journal \
                   entries have been written, exactly as SIGINT would, but \
                   with exit status 0.")
  in
  let shards_arg =
    Arg.(value & opt (some int) None
         & info [ "shards" ] ~docv:"N"
             ~doc:"Coordinator mode: split the plan into N contiguous \
                   slices, run each in its own worker process with its own \
                   journal shard (respawned on death, quarantined after two \
                   no-progress deaths in a row), and merge the shards into a \
                   report byte-identical to a single-process run. Exit 3 \
                   when quarantined slices made the report partial.")
  in
  let chaos_arg =
    Arg.(value & opt (some int) None
         & info [ "chaos" ] ~docv:"SEED"
             ~doc:"Arm the deterministic chaos harness (requires --shards): \
                   the seed expands into a reproducible schedule of worker \
                   kills, stalls and journal-tail corruptions; the merged \
                   report must still be byte-identical to an undisturbed \
                   run. A testing/soak feature.")
  in
  let watchdog_arg =
    Arg.(value & opt float 10.
         & info [ "watchdog" ] ~docv:"SECONDS"
             ~doc:"Coordinator watchdog: a worker whose journal shard shows \
                   no activity (heartbeats included) for this long is \
                   declared dead and replaced.")
  in
  let respawn_backoff_arg =
    Arg.(value & opt float 0.25
         & info [ "respawn-backoff" ] ~docv:"SECONDS"
             ~doc:"Initial delay before respawning a dead worker; doubles \
                   per consecutive death of the same shard.")
  in
  let shard_dir_arg =
    Arg.(value & opt string "faultcamp-shards"
         & info [ "shard-dir" ] ~docv:"DIR"
             ~doc:"Directory for the per-shard journals (created if \
                   missing).")
  in
  let worker_flag =
    Arg.(value & flag
         & info [ "worker" ]
             ~doc:"Worker-protocol mode (spawned by the coordinator; not \
                   for direct use): run one shard's slice against \
                   --journal, resuming it if it exists.")
  in
  let shard_index_arg =
    Arg.(value & opt (some int) None
         & info [ "shard-index" ] ~docv:"I"
             ~doc:"Worker protocol: this worker's shard index.")
  in
  let shard_count_arg =
    Arg.(value & opt (some int) None
         & info [ "shard-count" ] ~docv:"N"
             ~doc:"Worker protocol: total shard count.")
  in
  let chaos_exec_arg =
    Arg.(value & opt (some string) None
         & info [ "chaos-exec" ] ~docv:"DISRUPTION"
             ~doc:"Worker protocol: self-inflicted disruption ($(b,kill:N) \
                   or $(b,stall)) from the coordinator's chaos schedule.")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"CYCLES:OOB:HASH"
             ~doc:"Worker protocol: clean-run baseline checkpoint; a worker \
                   holding a matching baseline skips re-simulating the \
                   clean design, a mismatch is rejected with one line.")
  in
  let compact_arg =
    Arg.(value & opt (some string) None
         & info [ "compact" ] ~docv:"FILE"
             ~doc:"Compact the journal at FILE in place — header, one \
                   last-wins entry per completed task in index order, one \
                   footer — and exit. Atomic: a crash leaves the old or the \
                   new journal, never a torn hybrid.")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Print every mutant's outcome.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List known workloads and exit.")
  in
  let run workload faults seed factor jobs backend deadline slice retries
      backoff profile journal resume stop_after shards chaos watchdog
      respawn_backoff shard_dir worker shard_index shard_count chaos_exec
      baseline compact verbose list =
    handle_errors (fun () ->
        if list then
          List.iter
            (fun (c : Testinfra.Suite.case) ->
              print_endline c.Testinfra.Suite.case_name)
            (Testinfra.Faultcamp.default_workloads ())
        else
          match compact with
          | Some path ->
              let before, after = Testinfra.Faultcamp.compact path in
              Printf.printf "compacted %s: %d line(s) -> %d\n" path before after
          | None -> (
              check_campaign_flags ~shards ~chaos ~resume ~stop_after ~worker
                ~shard_index ~shard_count ~chaos_exec;
              Testinfra.Shard.validate_coordinator ~watchdog_seconds:watchdog
                ~respawn_backoff_seconds:respawn_backoff;
              let profile =
                Testinfra.Budget.parse_deadline_profile
                  ~valid_classes:Faults.Fault.all_classes profile
              in
              if worker then
                run_campaign_worker ~workload ~seed ~faults ~factor ~jobs
                  ~backend ~deadline ~slice ~retries ~backoff ~profile
                  ~journal ~shard_index:(Option.get shard_index)
                  ~shard_count:(Option.get shard_count) ~chaos_exec ~baseline;
              let cancel = Testinfra.Budget.token () in
              Testinfra.Budget.install_sigint cancel;
              match shards with
              | Some shards ->
                  run_campaign_sharded ~cancel ~verbose
                    {
                      Testinfra.Shard.case = find_campaign_case workload;
                      seed;
                      faults;
                      max_cycles_factor = factor;
                      backend;
                      deadline_seconds = deadline;
                      slice_cycles = slice;
                      max_retries = retries;
                      backoff_seconds = backoff;
                      deadline_profile = profile;
                      shards;
                      worker_jobs = jobs;
                      dir = shard_dir;
                      worker_exe = Sys.executable_name;
                      watchdog_seconds = watchdog;
                      respawn_backoff_seconds = respawn_backoff;
                      chaos;
                    }
              | None ->
                  let campaign =
                    match resume with
                    | Some path ->
                        Testinfra.Faultcamp.resume ~jobs ~cancel ?stop_after
                          path
                    | None ->
                        Testinfra.Faultcamp.run ~seed ~faults
                          ~max_cycles_factor:factor ~jobs ~backend
                          ~deadline_seconds:deadline ~slice_cycles:slice
                          ~max_retries:retries ~backoff_seconds:backoff
                          ~deadline_profile:profile ~cancel
                          ?journal_path:journal ?stop_after
                          (find_campaign_case workload)
                  in
                  (* The report on stdout is deterministic (identical at
                     any -j, any backend, any shard count, and whether the
                     campaign ran straight through or was resumed);
                     machine-dependent timing goes to stderr so
                     `fpgatest campaign > out` diffs clean. *)
                  Testinfra.Report.campaign ~verbose Format.std_formatter
                    campaign;
                  Printf.eprintf "%s\n"
                    (Testinfra.Metrics.campaign_timing campaign);
                  (* A campaign cut short by Ctrl-C exits 130 (the shell
                     convention for SIGINT); --stop-after is a deliberate,
                     scripted interrupt and keeps exit 0 so the smoke rules
                     can drive it. *)
                  if
                    campaign.Testinfra.Faultcamp.interrupted
                    && stop_after = None
                  then exit 130))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a seeded fault-injection campaign against a workload and \
             report the verifier's kill rate per fault class — in one \
             process, or sharded across self-healing worker processes.")
    Term.(
      const run $ workload_arg $ faults_arg $ seed_arg $ factor_arg
      $ jobs_arg $ backend_arg $ deadline_arg $ slice_arg $ retries_arg
      $ backoff_arg $ profile_arg $ journal_arg $ resume_arg $ stop_after_arg
      $ shards_arg $ chaos_arg $ watchdog_arg $ respawn_backoff_arg
      $ shard_dir_arg $ worker_flag $ shard_index_arg $ shard_count_arg
      $ chaos_exec_arg $ baseline_arg $ compact_arg $ verbose_arg $ list_arg)

(* --- fig1 ---------------------------------------------------------------- *)

let cmd_fig1 =
  let run () =
    print_string (Dotkit.Dot.to_string (Testinfra.Flow.infrastructure_diagram ()))
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Print the infrastructure diagram (paper Figure 1) as dot.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "fpgatest" ~version:"1.0.0"
      ~doc:"Functional-test infrastructure for compiler-generated FPGA designs."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_compile; cmd_simulate; cmd_verify; cmd_run; cmd_lint;
            cmd_dot; cmd_verilog; cmd_vhdl; cmd_systemc; cmd_metrics;
            cmd_suite; cmd_fuzz; cmd_tv; cmd_campaign; cmd_fig1;
          ]))
