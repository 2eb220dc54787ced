(* Mutation-campaign throughput benchmark.

   Runs the acceptance campaigns (gcd8 and vecadd, seed 1) over a
   backend x worker-count matrix, checks every cell's report is
   byte-identical to the interp/jobs=1 reference, and emits a JSON
   record so the perf trajectory of the campaign hot path stays
   measurable across PRs:

     dune build @bench-campaign        # writes BENCH_faultcamp.json

   The committed copy at the repo root is refreshed from that output.

   Unless -n pins the count, the planned faults scale with the host —
   [base_faults * host_cores], floored at [faults_floor] so the
   compiled backend's fixed per-campaign costs (levelization, clean-lane
   validation) are amortized and the backend ratio is meaningful. The
   JSON records base, floor, cores and the resolved count so records
   from different hosts remain comparable.

   Worker counts above the host's core count are tagged
   ["oversubscribed": true] and excluded from the speedup rows: a
   one-core CI box asking for -jobs 4 measures domain-scheduling
   overhead, not the pool, and must not pollute the headline numbers.
   The headline per workload is the compiled-over-interp mutants/s
   ratio at jobs=1. *)

module Faultcamp = Testinfra.Faultcamp
module Report = Testinfra.Report

let base_faults = 50
let faults_floor = 1000
let host_cores = Domain.recommended_domain_count ()
let workloads = ref [ "gcd8"; "vecadd" ]
let faults_arg = ref None
let seed = ref 1
let jobs_list = ref [ 1; 4 ]
let backends = ref [ Faultcamp.Interp; Faultcamp.Compiled ]
let fuzz_n = ref 40
let out_path = ref "BENCH_faultcamp.json"
let fpgatest_exe = ref ""
let shard_faults = 300
let shard_counts = [ 1; 2; 3 ]
let shard_chaos_seed = 2

let usage =
  "campaign [-w W1,W2] [-n FAULTS] [-seed N] [-jobs 1,4] \
   [-backends interp,compiled] [-o PATH]"

let parse_workloads s = workloads := String.split_on_char ',' s

let parse_jobs s =
  match List.map int_of_string (String.split_on_char ',' s) with
  | js when js <> [] && List.for_all (fun j -> j >= 1) js -> jobs_list := js
  | _ | (exception _) -> raise (Arg.Bad ("bad -jobs list: " ^ s))

let parse_backends s =
  let one l =
    match Faultcamp.backend_of_label l with
    | Some b -> b
    | None -> raise (Arg.Bad ("bad -backends entry: " ^ l))
  in
  match String.split_on_char ',' s with
  | [] -> raise (Arg.Bad "empty -backends list")
  | ls -> backends := List.map one ls

let spec =
  [
    ("-w", Arg.String parse_workloads, "W1,W2,... workloads to mutate");
    ("-n", Arg.Int (fun n -> faults_arg := Some n),
     "N faults to plan (default: 50 per host core, min 1000)");
    ("-seed", Arg.Set_int seed, "N campaign seed");
    ("-jobs", Arg.String parse_jobs, "J1,J2,... worker counts to measure");
    ("-backends", Arg.String parse_backends,
     "B1,B2,... backends to measure (interp, compiled, auto)");
    ("-fuzz-n", Arg.Set_int fuzz_n,
     "N programs for the differential-fuzzing throughput section");
    ("-fpgatest", Arg.Set_string fpgatest_exe,
     "PATH fpgatest binary re-execed as `fpgatest campaign --worker` shard \
      workers (enables the shard-scaling section)");
    ("-o", Arg.Set_string out_path, "PATH output JSON file");
  ]

let faults () =
  match !faults_arg with
  | Some n -> n
  | None -> max faults_floor (base_faults * host_cores)

let json_of_run (c : Faultcamp.t) =
  Printf.sprintf
    {|      { "backend": "%s", "backend_used": "%s", "jobs": %d,
        "oversubscribed": %b,
        "wall_seconds": %.6f, "mutants": %d,
        "mutants_per_second": %.3f, "kill_rate": %.4f,
        "total_mutant_cycles": %d,
        "retries": %d, "quarantined": %d, "wall_timeouts": %d,
        "cancelled": %d }|}
    (Faultcamp.backend_label c.Faultcamp.backend)
    (Faultcamp.backend_label c.Faultcamp.backend_used)
    c.Faultcamp.jobs
    (c.Faultcamp.jobs > host_cores)
    c.Faultcamp.wall_seconds
    (List.length c.Faultcamp.mutants)
    c.Faultcamp.mutants_per_second c.Faultcamp.kill_rate
    c.Faultcamp.total_mutant_cycles
    (List.length (Faultcamp.retried c))
    (List.length (Faultcamp.quarantined c))
    (List.length (Faultcamp.wall_timeouts c))
    (List.length (Faultcamp.cancelled c))

let bench_workload name =
  let case =
    match Faultcamp.find_workload name with
    | Some c -> c
    | None ->
        Printf.eprintf "error: unknown workload %S\n" name;
        exit 1
  in
  let cells =
    List.concat_map
      (fun backend -> List.map (fun jobs -> (backend, jobs)) !jobs_list)
      !backends
  in
  let runs =
    List.map
      (fun (backend, jobs) ->
        let c = Faultcamp.run ~seed:!seed ~faults:(faults ()) ~jobs ~backend case in
        (c, Report.campaign_to_string ~verbose:true c))
      cells
  in
  (* Every backend/jobs cell must reproduce the reference report byte
     for byte — the benchmark doubles as the determinism check. *)
  (match runs with
  | [] -> ()
  | (ref_c, ref_report) :: rest ->
      List.iter
        (fun (c, report) ->
          if report <> ref_report then begin
            Printf.eprintf
              "error: %s report at backend=%s jobs=%d differs from \
               backend=%s jobs=%d — campaign execution is not deterministic\n"
              name
              (Faultcamp.backend_label c.Faultcamp.backend)
              c.Faultcamp.jobs
              (Faultcamp.backend_label ref_c.Faultcamp.backend)
              ref_c.Faultcamp.jobs;
            exit 1
          end)
        rest);
  (* Pool speedups, per backend, against that backend's jobs=1 run.
     Oversubscribed cells are excluded: they measure scheduling noise. *)
  let headlined =
    List.filter (fun (c, _) -> c.Faultcamp.jobs <= host_cores) runs
  in
  let speedups =
    List.filter_map
      (fun (c, _) ->
        let base =
          List.find_opt
            (fun (b, _) ->
              b.Faultcamp.backend = c.Faultcamp.backend && b.Faultcamp.jobs = 1)
            runs
        in
        match base with
        | Some (b, _) when c.Faultcamp.wall_seconds > 0. ->
            Some
              (Printf.sprintf
                 {|      { "backend": "%s", "jobs": %d, "speedup_vs_jobs1": %.3f }|}
                 (Faultcamp.backend_label c.Faultcamp.backend)
                 c.Faultcamp.jobs
                 (b.Faultcamp.wall_seconds /. c.Faultcamp.wall_seconds))
        | _ -> None)
      headlined
  in
  (* The headline: compiled-over-interp throughput at jobs=1, with the
     kill rates asserted identical (they came from byte-identical
     reports, but the JSON states it explicitly). *)
  let at backend =
    List.find_opt
      (fun (c, _) ->
        c.Faultcamp.backend = backend && c.Faultcamp.jobs = 1)
      runs
  in
  let headline =
    match (at Faultcamp.Interp, at Faultcamp.Compiled) with
    | Some (i, _), Some (c, _) when i.Faultcamp.mutants_per_second > 0. ->
        Printf.sprintf
          {|,
    "headline": { "compiled_speedup_vs_interp_jobs1": %.2f,
      "kill_rates_identical": %b }|}
          (c.Faultcamp.mutants_per_second /. i.Faultcamp.mutants_per_second)
          (c.Faultcamp.kill_rate = i.Faultcamp.kill_rate)
    | _ -> ""
  in
  let json =
    Printf.sprintf
      {|  { "workload": "%s",
    "runs": [
%s
    ],
    "speedups": [
%s
    ]%s
  }|}
      name
      (String.concat ",\n" (List.map (fun (c, _) -> json_of_run c) runs))
      (String.concat ",\n" speedups)
      headline
  in
  List.iter
    (fun (c, _) ->
      Printf.printf "%s backend=%s jobs=%d: %.3fs, %.1f mutants/s, \
                     kill rate %.1f%%%s\n"
        name
        (Faultcamp.backend_label c.Faultcamp.backend)
        c.Faultcamp.jobs c.Faultcamp.wall_seconds c.Faultcamp.mutants_per_second
        (100. *. c.Faultcamp.kill_rate)
        (if c.Faultcamp.jobs > host_cores then " (oversubscribed)" else ""))
    runs;
  json

(* Differential-fuzzing throughput: how many generated programs per
   second the four-way oracle sustains (every compilation variant through
   golden + event + cyclesim + fastsim). Divergences should be zero on a
   healthy tree; a nonzero count here is a red flag long before the
   corpus replay fails. *)
let bench_fuzz () =
  let stats = Fuzz.Driver.run ~n:!fuzz_n ~seed:!seed () in
  Printf.printf
    "fuzz n=%d seed=%d: %.3fs, %.1f programs/s, %d agreed, %d rejected, %d \
     divergent\n"
    !fuzz_n !seed stats.Fuzz.Driver.wall_seconds
    (Fuzz.Driver.programs_per_second stats)
    stats.Fuzz.Driver.agreed stats.Fuzz.Driver.rejected
    (List.length stats.Fuzz.Driver.divergences);
  Printf.sprintf
    {|  "fuzz": { "programs": %d, "seed": %d,
    "wall_seconds": %.6f, "programs_per_second": %.3f,
    "agreed": %d, "rejected": %d, "divergent": %d },|}
    !fuzz_n !seed stats.Fuzz.Driver.wall_seconds
    (Fuzz.Driver.programs_per_second stats)
    stats.Fuzz.Driver.agreed stats.Fuzz.Driver.rejected
    (List.length stats.Fuzz.Driver.divergences)

(* Shard-scaling and chaos-recovery overhead: the coordinator's cost is
   process spawns, journal polling and the final merge-replay, so wall
   time per shard count against the in-process reference measures
   exactly the coordination tax. The chaos row runs the pinned seed
   (worker kills, a stall into the watchdog, journal-tail corruption at
   3 shards) and reports the recovery overhead over the undisturbed
   3-shard run. Every cell also re-asserts the headline contract: the
   merged report is byte-identical to the single-process one. *)
let bench_shards () =
  if !fpgatest_exe = "" then begin
    Printf.printf "shard section skipped (no -fpgatest PATH given)\n";
    {|  "shard": null,|}
  end
  else begin
    let name = "gcd8" in
    let case =
      match Faultcamp.find_workload name with
      | Some c -> c
      | None -> assert false
    in
    let reference = Faultcamp.run ~seed:!seed ~faults:shard_faults case in
    let ref_report = Report.campaign_to_string ~verbose:true reference in
    let dir_root =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "faultcamp-bench-shards-%d" (Unix.getpid ()))
    in
    let run_sharded ?chaos shards =
      let sub =
        Printf.sprintf "%s-%d%s" dir_root shards
          (if chaos = None then "" else "-chaos")
      in
      let cfg =
        {
          (Testinfra.Shard.default_config ~case ~dir:sub
             ~worker_exe:!fpgatest_exe)
          with
          seed = !seed;
          faults = shard_faults;
          shards;
          chaos;
          watchdog_seconds = 5.;
          respawn_backoff_seconds = 0.05;
        }
      in
      Testinfra.Shard.run cfg
    in
    let row ?chaos (r : Testinfra.Shard.result) shards =
      let workers = Testinfra.Shard.workers_spawned r in
      let quarantined = Testinfra.Shard.quarantined r in
      let identical =
        Report.campaign_to_string ~verbose:true r.Testinfra.Shard.campaign
        = ref_report
      in
      if not identical then begin
        Printf.eprintf
          "error: sharded report (shards=%d%s) differs from the \
           single-process reference\n"
          shards
          (match chaos with
          | None -> ""
          | Some c -> Printf.sprintf ", chaos=%d" c);
        exit 1
      end;
      Printf.printf
        "shard scaling shards=%d%s: %.3fs, %d workers (%d respawns), %d \
         quarantined, identical=%b\n"
        shards
        (match chaos with
        | None -> ""
        | Some c -> Printf.sprintf " chaos=%d" c)
        r.Testinfra.Shard.wall_seconds workers r.Testinfra.Shard.respawns
        quarantined identical;
      (r.Testinfra.Shard.wall_seconds, workers, r.Testinfra.Shard.respawns,
       quarantined, identical)
    in
    let scaling =
      List.map
        (fun shards ->
          let r = run_sharded shards in
          let wall, workers, respawns, quarantined, identical =
            row r shards
          in
          ( shards,
            Printf.sprintf
              {|      { "shards": %d, "wall_seconds": %.6f,
        "workers_spawned": %d, "respawns": %d, "quarantined": %d,
        "report_identical": %b }|}
              shards wall workers respawns quarantined identical,
            wall ))
        shard_counts
    in
    let chaos_r = run_sharded ~chaos:shard_chaos_seed 3 in
    let c_wall, c_workers, c_respawns, c_quarantined, c_identical =
      row ~chaos:shard_chaos_seed chaos_r 3
    in
    let clean3_wall =
      match List.find_opt (fun (s, _, _) -> s = 3) scaling with
      | Some (_, _, w) when w > 0. -> w
      | _ -> 0.
    in
    Printf.sprintf
      {|  "shard": { "workload": "%s", "faults": %d,
    "scaling": [
%s
    ],
    "chaos_recovery": { "shards": 3, "chaos_seed": %d,
      "wall_seconds": %.6f, "workers_spawned": %d, "respawns": %d,
      "quarantined": %d, "report_identical": %b,
      "recovery_overhead_vs_clean": %.3f } },|}
      name shard_faults
      (String.concat ",\n" (List.map (fun (_, j, _) -> j) scaling))
      shard_chaos_seed c_wall c_workers c_respawns c_quarantined c_identical
      (if clean3_wall > 0. then c_wall /. clean3_wall else 0.)
  end

(* Translation-validation throughput: certify every builtin kernel with
   all three transforming passes enabled and aggregate validator wall
   time per pass, plus the decision procedure's per-stage split —
   normalize / bit-blast / SAT-solve — from the {!Ec.Term.Stats}
   accumulator. The verdict counts double as a health check — a refuted
   or inconclusive certificate on a builtin kernel is a regression the
   tv test suite will also catch, but the benchmark surfaces it in the
   perf record too. *)
let bench_tv () =
  let totals = Hashtbl.create 3 in
  let bump pass seconds ok =
    let t, n, bad =
      Option.value ~default:(0., 0, 0) (Hashtbl.find_opt totals pass)
    in
    Hashtbl.replace totals pass
      (t +. seconds, n + 1, bad + if ok then 0 else 1)
  in
  Ec.Term.Stats.reset ();
  List.iter
    (fun (case : Testinfra.Suite.case) ->
      let compiled =
        Compiler.Compile.compile
          ~options:
            {
              Compiler.Compile.share_operators = true;
              optimize = true;
              fold_branches = true;
            }
          (Lang.Parser.parse_string case.Testinfra.Suite.source)
      in
      List.iter
        (fun (r : Tv.report) ->
          bump (Tv.pass_name r.Tv.pass) r.Tv.seconds
            (r.Tv.cert = Tv.Proved))
        (Compiler.Compile.certify compiled))
    (Testinfra.Suite.builtin_cases ());
  let st = Ec.Term.Stats.get () in
  let rows =
    List.filter_map
      (fun pass ->
        match Hashtbl.find_opt totals pass with
        | None -> None
        | Some (t, n, bad) ->
            Printf.printf
              "tv pass=%s: %d certificate(s), %.4fs total, %d not proved\n"
              pass n t bad;
            Some
              (Printf.sprintf
                 {|    { "pass": "%s", "certificates": %d,
      "wall_seconds": %.6f, "not_proved": %d }|}
                 pass n t bad))
      [ "optimize"; "share"; "fold" ]
  in
  Printf.printf
    "tv decide stages: normalize %.4fs, blast %.4fs, solve %.4fs (%d SAT \
     calls, %d conflicts)\n"
    st.Ec.Term.Stats.normalize_s st.Ec.Term.Stats.blast_s
    st.Ec.Term.Stats.solve_s st.Ec.Term.Stats.sat_calls
    st.Ec.Term.Stats.conflicts;
  Printf.sprintf
    {|  "tv": [
%s
  ],
  "tv_decide_stages": { "engine": "decide",
    "normalize_seconds": %.6f, "blast_seconds": %.6f,
    "solve_seconds": %.6f, "sat_calls": %d, "conflicts": %d },|}
    (String.concat ",\n" rows)
    st.Ec.Term.Stats.normalize_s st.Ec.Term.Stats.blast_s
    st.Ec.Term.Stats.solve_s st.Ec.Term.Stats.sat_calls
    st.Ec.Term.Stats.conflicts

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let per_workload = List.map bench_workload !workloads in
  let fuzz_section = bench_fuzz () in
  let shard_section = bench_shards () in
  let tv_section = bench_tv () in
  let json =
    Printf.sprintf
      {|{
  "benchmark": "faultcamp-campaign",
  "schema_version": 8,
  "seed": %d,
  "faults_base": %d,
  "faults_floor": %d,
  "faults_scaled_by_cores": %b,
  "faults_requested": %d,
  "host_cores": %d,
  "deadline_seconds": %g,
  "slice_cycles": %d,
  "max_retries": %d,
  "deterministic_across_jobs_and_backends": true,
%s
%s
%s
  "workloads": [
%s
  ]
}
|}
      !seed base_faults faults_floor
      (!faults_arg = None)
      (faults ()) host_cores
      Faultcamp.default_deadline_seconds Faultcamp.default_slice_cycles
      Faultcamp.default_max_retries fuzz_section shard_section tv_section
      (String.concat ",\n" per_workload)
  in
  let oc = open_out !out_path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" !out_path
