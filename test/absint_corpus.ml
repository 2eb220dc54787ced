(* Determinism gate for the abstract interpreter: runs [Compile.lint_deep]
   over every [*.alg] of the given directories under each of
   [Suite.default_variants] and prints, per analysed configuration, its
   fixpoint iteration count and the sorted codes of the diagnostics
   located in it, then the sorted codes of the whole deep report. The
   output is diffed against [absint_corpus.expected] on [dune runtest].

   Usage: absint_corpus.exe DIR... *)

module Compile = Compiler.Compile

let codes diags =
  String.concat ","
    (List.sort compare (List.map (fun (d : Diag.t) -> d.Diag.code) diags))

let located cfg (d : Diag.t) =
  let p = "configuration " ^ cfg in
  d.Diag.location = p || String.starts_with ~prefix:(p ^ " ") d.Diag.location

let run_file path =
  let file = Filename.basename path in
  match Lang.Parser.parse_file path with
  | exception e -> Printf.printf "%s: parse error (%s)\n" file (Printexc.to_string e)
  | prog ->
      List.iter
        (fun (variant, options) ->
          match Compile.compile ~options prog with
          | exception (Compile.Error _ | Lang.Check.Invalid _) ->
              Printf.printf "%s %s: rejected\n" file variant
          | compiled ->
              let deep = Compile.lint_deep compiled in
              List.iter
                (fun (a : Lint.analysis) ->
                  Printf.printf "%s %s %s iterations=%d codes=[%s]\n" file variant
                    a.Lint.cfg a.Lint.fixpoint_iterations
                    (codes (List.filter (located a.Lint.cfg) deep.Lint.deep_diags)))
                deep.Lint.analyses;
              Printf.printf "%s %s: diags=[%s]\n" file variant
                (codes deep.Lint.deep_diags))
        Testinfra.Suite.default_variants

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let dir = Sys.argv.(i) in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".alg")
    |> List.sort compare
    |> List.iter (fun f -> run_file (Filename.concat dir f))
  done
