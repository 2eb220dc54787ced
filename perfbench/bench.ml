(* Benchmark harness: one workload, one seed, one measured window.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats the workload's untraced job until the window is
   used (at least three times) and reports the end-to-end metrics as
   medians over the repeats. --trace 1 spends half the window on
   untraced repeats (for the overhead baseline), then replays the job
   once through finer calls with a span around each layer, writes the
   replay as a Chrome trace and reports the per-layer table. The
   last line of standard output is the result object; the line before it
   records the host. Exit 1 when a correctness gate or the determinism
   check fails, 2 on bad arguments. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("items_per_s", "1/s");
    ("cpu_s", "s");
    ("peak_rss_mb", "MiB");
  ]

(* Every per-layer metric of every workload; a workload reports 0 for a
   layer it does not exercise. *)
let per_layer =
  [
    ("lang.parse.s", "s");
    ("compiler.compile.s", "s");
    ("lang.interp.s", "s");
    ("sim.run.s", "s");
    ("verify.diff.s", "s");
    ("hdl.emit.s", "s");
    ("hdl.lint.s", "s");
    ("tv.certify.s", "s");
    ("lint.deep.s", "s");
    ("faultcamp.prepare.s", "s");
    ("faultcamp.run.s", "s");
    ("fuzz.gen.s", "s");
    ("fuzz.oracle.s", "s");
    ("unattributed.s", "s");
    ("trace.total_s", "s");
    ("trace.overhead_s", "s");
    ("compiler.states", "count");
    ("compiler.fus", "count");
    ("lang.interp.statements", "count");
    ("sim.cycles", "count");
    ("sim.events", "count");
    ("sim.deltas", "count");
    ("sim.activations", "count");
    ("sim.events_per_s", "1/s");
    ("tv.certificates", "count");
    ("tv.proved", "count");
    ("ec.sat_calls", "count");
    ("ec.conflicts", "count");
    ("absint.configurations", "count");
    ("absint.iterations", "count");
    ("absint.us_per_iteration", "us");
    ("faultcamp.mutants", "count");
    ("faultcamp.mutant_cycles", "count");
    ("faultcamp.kill_rate", "ratio");
    ("faultcamp.crashed", "count");
    ("faultcamp.retried", "count");
    ("faultcamp.wall_timeouts", "count");
    ("faultcamp.quarantined", "count");
    ("faultcamp.compiled_designs", "count");
    ("faultcamp.run.cpu_util", "ratio");
    ("faultcamp.mutant_cycles_per_s", "1/s");
    ("fuzz.agreed", "count");
    ("fuzz.rejected", "count");
    ("fuzz.divergent", "count");
    ("fuzz.oracle.p50_s", "s");
    ("fuzz.oracle.samples", "count");
    ("failed_frac", "ratio");
  ]

let min_repeats = 3

(* Stop starting repeats well before the 180 s a run may take. *)
let hard_stop_s = 120.

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let since t0 = Span.seconds_between t0 (Span.now_ns ())

(* Repeats [w]'s job for about [budget] seconds, stopping at the first
   failed gate. *)
let repeat_jobs (w : Jobs.workload) ~seed ~budget ~min_runs =
  let t0 = Span.now_ns () in
  let rec go acc =
    let j = w.Jobs.job ~seed in
    let acc = j :: acc and elapsed = since t0 in
    let n = List.length acc in
    Printf.eprintf "%s repeat %d: wall %.4f s, setup %.4f s, cpu %.4f s\n%!" w.Jobs.name n
      j.Jobs.wall_s j.Jobs.setup_s j.Jobs.cpu_s;
    if
      j.Jobs.out.Jobs.problems <> []
      || elapsed > hard_stop_s
      || (n >= min_runs && elapsed +. (elapsed /. float_of_int n) > budget)
    then List.rev acc
    else go acc
  in
  go []

(* Gate failures of every repeat, then the determinism check: every
   repeat must agree with the first. *)
let job_problems jobs =
  match List.concat_map (fun (j : Jobs.job) -> j.Jobs.out.Jobs.problems) jobs with
  | [] -> (
      match jobs with
      | [] -> []
      | first :: rest ->
          List.concat_map
            (fun (j : Jobs.job) -> Jobs.determinism ~what:"a repeat" first.Jobs.out j.Jobs.out)
            rest)
  | gates -> gates

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name) (number v)
             (Span.json_string unit))
         metrics)
  ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_json metrics)

let host_line ~(w : Jobs.workload) ~seed ~seconds ~trace ~commit ~repeats =
  let fields =
    [
      ("workload", Span.json_string w.Jobs.name);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_int trace);
      ("sizes", Span.json_string w.Jobs.sizes);
      ("repeats", string_of_int repeats);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Span.json_string Sys.ocaml_version);
      ("commit", Span.json_string commit);
    ]
  in
  "# host {"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Span.json_string k) v) fields)
  ^ "}"

let finish ~problems ~attempted ~failed metrics =
  List.iter (fun p -> Printf.eprintf "FAILED %s\n" p) problems;
  print_endline (result_line ~correct:(problems = []) ~attempted ~failed metrics);
  exit (if problems = [] then 0 else 1)

let tally jobs =
  List.fold_left
    (fun (a, f) (j : Jobs.job) -> (a + j.Jobs.out.Jobs.items, f + j.Jobs.out.Jobs.failed))
    (0, 0) jobs

let run_untraced w ~seed ~seconds ~commit =
  let jobs = repeat_jobs w ~seed ~budget:(float_of_int seconds) ~min_runs:min_repeats in
  let med f = median (List.map f jobs) in
  let metrics =
    [
      ("wall_s", med (fun j -> j.Jobs.wall_s));
      ("setup_s", med (fun j -> j.Jobs.setup_s));
      ( "items_per_s",
        med (fun j -> float_of_int j.Jobs.out.Jobs.items /. (j.Jobs.wall_s -. j.Jobs.setup_s)) );
      ("cpu_s", med (fun j -> j.Jobs.cpu_s));
      ("peak_rss_mb", Host.peak_rss_mb ());
    ]
  in
  let metrics = List.map (fun (n, v) -> (n, List.assoc n end_to_end, v)) metrics in
  print_endline (host_line ~w ~seed ~seconds ~trace:0 ~commit ~repeats:(List.length jobs));
  let attempted, failed = tally jobs in
  finish ~problems:(job_problems jobs) ~attempted ~failed metrics

let trace_dir = Filename.concat "perfbench" "out"

let write_trace (w : Jobs.workload) ~seed ~commit r =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" w.Jobs.name seed) in
  let oc = open_out_bin path in
  output_string oc
    (Span.to_chrome_json
       ~metadata:[ ("workload", w.Jobs.name); ("seed", string_of_int seed); ("commit", commit) ]
       r);
  close_out oc;
  path

(* The per-layer table of one traced replay: layer rows, the remainder
   no layer span covers, and the traced total. *)
let layer_table (w : Jobs.workload) ~seed ~untraced_wall r =
  let total = Span.total_s r in
  let rows = Span.fold r in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. rows in
  let rows = rows @ [ ("unattributed.s", total -. attributed) ] in
  Printf.eprintf "traced %s (seed %d):\n" w.Jobs.name seed;
  List.iter
    (fun (layer, s) -> Printf.eprintf "  %-22s %9.4f s  %5.1f%%\n" layer s (100. *. s /. total))
    rows;
  Printf.eprintf "  %-22s %9.4f s  (untraced median %.4f s)\n" "trace.total_s" total untraced_wall;
  rows @ [ ("trace.total_s", total); ("trace.overhead_s", total -. untraced_wall) ]

let run_traced (w : Jobs.workload) ~seed ~seconds ~commit =
  let jobs = repeat_jobs w ~seed ~budget:(float_of_int seconds /. 2.) ~min_runs:2 in
  let attempted, failed = tally jobs in
  let problems = job_problems jobs in
  let values, problems, attempted, failed =
    match (problems, jobs) with
    | [], first :: _ ->
        let r = Span.create () in
        let t = w.Jobs.trace ~seed r in
        let out = t.Jobs.t_out in
        let path = write_trace w ~seed ~commit r in
        Printf.eprintf "trace written to %s\n" path;
        let untraced_wall = median (List.map (fun j -> j.Jobs.wall_s) jobs) in
        ( layer_table w ~seed ~untraced_wall r
          @ [ ("failed_frac", float_of_int out.Jobs.failed /. float_of_int (max 1 out.Jobs.items)) ]
          @ out.Jobs.counts @ t.Jobs.derived,
          out.Jobs.problems @ Jobs.determinism ~what:"the traced replay" first.Jobs.out out,
          attempted + out.Jobs.items,
          failed + out.Jobs.failed )
    | problems, _ -> ([], problems, attempted, failed)
  in
  let metrics =
    List.map
      (fun (n, unit) -> (n, unit, Option.value ~default:0. (List.assoc_opt n values)))
      per_layer
  in
  print_endline (host_line ~w ~seed ~seconds ~trace:1 ~commit ~repeats:(List.length jobs + 1));
  finish ~problems ~attempted ~failed metrics

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit REV]\n\
  \       bench.exe --selftest | --record-reference"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let commit = ref "unknown" and selftest = ref false and record = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME regress | certify | campaign | fuzz");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--commit", Arg.Set_string commit, "REV recorded with the result");
      ("--selftest", Arg.Set selftest, " check that every correctness gate fires");
      ( "--record-reference",
        Arg.Set record,
        " print the campaign reports' digest under the interp backend at the default seed" );
    ]
  in
  let bad msg =
    prerr_endline ("bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> bad (String.trim msg));
  if !selftest then exit (Selftest.run ())
  else if !record then
    print_endline (Jobs.campaign_interp_digest ~seed:Jobs.campaign_default_seed)
  else begin
    if !seconds < 1 then bad "--seconds must be at least 1";
    if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
    match List.find_opt (fun (w : Jobs.workload) -> w.Jobs.name = !workload) Jobs.all with
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
    | Some w -> (
        (* A layer that raises (a compile error, a clean design failing
           verification) is a failed run too, not a crash of the harness. *)
        try
          if !trace = 1 then run_traced w ~seed:!seed ~seconds:!seconds ~commit:!commit
          else run_untraced w ~seed:!seed ~seconds:!seconds ~commit:!commit
        with e ->
          Printf.eprintf "FAILED %s: %s\n" w.Jobs.name (Printexc.to_string e);
          exit 1)
  end
