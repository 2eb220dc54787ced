(* Tests for the sharded campaign coordinator and its chaos harness:
   slice arithmetic, deterministic chaos schedules, the pinned seed the
   smoke rules replay, end-to-end worker-process campaigns at several
   shard counts (with and without chaos) asserted byte-identical to
   in-process runs, and quarantine degrading to a partial report. *)

module Faultcamp = Testinfra.Faultcamp
module Shard = Testinfra.Shard
module Chaos = Testinfra.Chaos
module Report = Testinfra.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let gcd8_case () =
  match Faultcamp.find_workload "gcd8" with
  | Some c -> c
  | None -> Alcotest.fail "gcd8 workload missing"

let vecadd_case () =
  match Faultcamp.find_workload "vecadd" with
  | Some c -> c
  | None -> Alcotest.fail "vecadd workload missing"

(* The worker binary, relative to the test runner's cwd
   (_build/default/test); the dune test stanza depends on it. *)
let fpgatest_exe () =
  let path = Filename.concat (Sys.getcwd ()) "../bin/fpgatest.exe" in
  if not (Sys.file_exists path) then
    Alcotest.fail ("worker binary not built: " ^ path);
  path

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "test-shard-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- slice arithmetic ---------------------------------------------------- *)

let test_shard_slice_laws () =
  for shards = 1 to 7 do
    for plan = 0 to 13 do
      let slices =
        List.init shards (fun i -> Faultcamp.shard_slice ~shards ~plan i)
      in
      (* Contiguous cover of [0, plan): each slice starts where the
         previous ended, the first at 0, the last at plan. *)
      let rec chain expected = function
        | [] -> check_int "cover ends at plan" plan expected
        | (lo, hi) :: rest ->
            check_int "contiguous" expected lo;
            check_bool "ordered" true (lo <= hi);
            chain hi rest
      in
      chain 0 slices;
      (* Balanced: slice sizes differ by at most one. *)
      let sizes = List.map (fun (lo, hi) -> hi - lo) slices in
      let mn = List.fold_left min max_int sizes in
      let mx = List.fold_left max 0 sizes in
      check_bool "balanced" true (mx - mn <= 1)
    done
  done;
  check_bool "out-of-range index rejected" true
    (try ignore (Faultcamp.shard_slice ~shards:3 ~plan:10 3); false
     with Invalid_argument _ -> true)

(* --- chaos schedules ----------------------------------------------------- *)

let steps_of plan shard =
  let rec go attempt acc =
    match Chaos.step plan ~shard ~attempt with
    | None -> List.rev acc
    | Some s -> go (attempt + 1) (s :: acc)
  in
  go 0 []

let test_chaos_plan_deterministic_and_survivable () =
  for seed = 1 to 50 do
    for shards = 1 to 4 do
      let a = Chaos.plan ~seed ~shards in
      let b = Chaos.plan ~seed ~shards in
      check_string "equal seeds give equal schedules" (Chaos.describe a)
        (Chaos.describe b);
      for shard = 0 to shards - 1 do
        let steps = steps_of a shard in
        check_bool "at most two steps per shard" true (List.length steps <= 2);
        List.iteri
          (fun attempt (s : Chaos.step) ->
            match s.Chaos.disrupt with
            | Chaos.Kill_after k ->
                (* Kills only fire after at least one journal entry, so
                   progress always resets the quarantine streak and chaos
                   alone can never quarantine a shard. *)
                check_bool "kills fire after progress" true (k >= 1)
            | Chaos.Stall ->
                check_int "a stall only ever opens a schedule" 0 attempt)
          steps
      done
    done
  done

let test_chaos_labels_round_trip () =
  List.iter
    (fun d ->
      check_bool "label round-trips" true
        (Chaos.disruption_of_label (Chaos.disruption_label d) = Some d))
    [ Chaos.Stall; Chaos.Kill_after 1; Chaos.Kill_after 7 ];
  check_bool "junk label rejected" true
    (Chaos.disruption_of_label "explode" = None);
  check_bool "kill:0 rejected" true (Chaos.disruption_of_label "kill:0" = None)

let test_pinned_chaos_seed_2 () =
  (* The exact schedules the @shard-smoke rules replay. Together they
     cover every recovery path: a plain kill at 1 shard, kills with
     journal-tail corruption at 2, and a watchdog-tripping stall plus a
     double kill (both corrupting) at 3. If the chaos generator changes,
     this pin fails before the smoke rules start flaking. *)
  check_string "seed 2, 1 shard" "shard 0: kill:2"
    (Chaos.describe (Chaos.plan ~seed:2 ~shards:1));
  check_string "seed 2, 2 shards"
    "shard 0: kill:1+corrupt; shard 1: kill:1+corrupt"
    (Chaos.describe (Chaos.plan ~seed:2 ~shards:2));
  check_string "seed 2, 3 shards"
    "shard 0: -; shard 1: stall,kill:3+corrupt; shard 2: \
     kill:2+corrupt,kill:3+corrupt"
    (Chaos.describe (Chaos.plan ~seed:2 ~shards:3))

(* --- worker wire format -------------------------------------------------- *)

let test_worker_args_wire_format () =
  with_temp_dir (fun dir ->
      let cfg =
        {
          (Shard.default_config ~case:(gcd8_case ()) ~dir
             ~worker_exe:"/bin/echo")
          with
          Shard.shards = 3;
          chaos = Some 2;
        }
      in
      let _, baseline = Faultcamp.prepare ~seed:1 ~faults:25 (gcd8_case ()) in
      let args =
        Shard.worker_args cfg ~baseline ~shard:1
          ~chaos_exec:(Some (Chaos.Kill_after 2))
      in
      check_string "the campaign subcommand comes first" "campaign"
        (List.hd args);
      let has flag = List.mem flag args in
      List.iter
        (fun flag -> check_bool flag true (has flag))
        [
          "--worker"; "--journal"; "--shard-index"; "--shard-count";
          "--baseline"; "--chaos-exec"; "--workload"; "--seed"; "--faults";
        ];
      check_bool "chaos disruption uses the wire label" true
        (List.mem "kill:2" args);
      check_bool "baseline uses the wire spelling" true
        (List.mem (Faultcamp.baseline_to_string baseline) args);
      let no_chaos = Shard.worker_args cfg ~baseline ~shard:1 ~chaos_exec:None in
      check_bool "no --chaos-exec when undisturbed" true
        (not (List.mem "--chaos-exec" no_chaos)))

(* --- end-to-end coordinator runs ----------------------------------------- *)

let coordinator_config ?chaos ~dir ~shards case =
  {
    (Shard.default_config ~case ~dir ~worker_exe:(fpgatest_exe ())) with
    Shard.seed = 5;
    faults = 12;
    shards;
    backend = Faultcamp.Interp;
    watchdog_seconds = 2.;
    respawn_backoff_seconds = 0.05;
    chaos;
  }

let fresh_report case =
  Report.campaign_to_string ~verbose:true
    (Faultcamp.run ~seed:5 ~faults:12 ~backend:Faultcamp.Interp case)

let test_sharded_report_byte_identical () =
  let case = gcd8_case () in
  let reference = fresh_report case in
  List.iter
    (fun shards ->
      with_temp_dir (fun dir ->
          let r = Shard.run (coordinator_config ~dir ~shards case) in
          check_string
            (Printf.sprintf "shards=%d report identical" shards)
            reference
            (Report.campaign_to_string ~verbose:true r.Shard.campaign);
          check_bool "no quarantine" true
            (List.for_all
               (fun (s : Shard.shard_status) -> not s.Shard.s_quarantined)
               r.Shard.statuses);
          check_int "no respawns on a healthy run" 0 r.Shard.respawns;
          check_bool "render adds no INCOMPLETE section" true
            (Shard.render ~verbose:true r
            = Report.campaign_to_string ~verbose:true r.Shard.campaign)))
    [ 1; 2; 3 ]

let test_chaos_recovery_byte_identical () =
  (* The acceptance criterion: under the pinned chaos seed — worker
     kills, a stall into the watchdog, torn journal tails — the merged
     report still comes out byte-identical at every shard count. *)
  let case = gcd8_case () in
  let reference = fresh_report case in
  List.iter
    (fun shards ->
      with_temp_dir (fun dir ->
          let r = Shard.run (coordinator_config ~chaos:2 ~dir ~shards case) in
          check_string
            (Printf.sprintf "chaos shards=%d report identical" shards)
            reference
            (Report.campaign_to_string ~verbose:true r.Shard.campaign);
          check_bool "chaos never quarantines a correct coordinator" true
            (List.for_all
               (fun (s : Shard.shard_status) -> not s.Shard.s_quarantined)
               r.Shard.statuses);
          check_bool "the schedule actually killed workers" true
            (r.Shard.respawns > 0)))
    [ 1; 2; 3 ]

let test_quarantine_degrades_to_partial_report () =
  (* A worker that dies instantly without ever journaling progress: two
     deaths in a row quarantine the shard, and the coordinator degrades
     to a partial report with an INCOMPLETE section instead of
     aborting. *)
  with_temp_dir (fun dir ->
      let cfg =
        {
          (Shard.default_config ~case:(vecadd_case ()) ~dir
             ~worker_exe:"/bin/false")
          with
          Shard.seed = 1;
          faults = 6;
          shards = 2;
          watchdog_seconds = 2.;
          respawn_backoff_seconds = 0.01;
        }
      in
      let r = Shard.run cfg in
      check_bool "every shard quarantined" true
        (List.for_all
           (fun (s : Shard.shard_status) -> s.Shard.s_quarantined)
           r.Shard.statuses);
      check_bool "at least two workers per shard before giving up" true
        (List.for_all
           (fun (s : Shard.shard_status) -> s.Shard.s_attempts >= 2)
           r.Shard.statuses);
      check_bool "campaign degraded, not aborted" true
        r.Shard.campaign.Faultcamp.interrupted;
      check_int "every mutant cancelled"
        (List.length r.Shard.campaign.Faultcamp.mutants)
        (List.length (Faultcamp.cancelled r.Shard.campaign));
      let rendered = Shard.render r in
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i =
          i + n <= h && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      check_bool "render names the quarantined shards" true
        (contains "INCOMPLETE" rendered);
      check_bool "report carries the INTERRUPTED notice" true
        (contains "INTERRUPTED" rendered))

let test_bad_parameter_rejected_before_spawning () =
  (* A campaign parameter out of range is the config's fault, not the
     workers': Shard.run must refuse it before it creates the shard
     directory or spawns anything, rather than letting every worker die
     on it and quarantining the shards. *)
  with_temp_dir (fun dir ->
      let cfg =
        {
          (Shard.default_config ~case:(gcd8_case ()) ~dir
             ~worker_exe:"/bin/false")
          with
          Shard.slice_cycles = 0;
          shards = 2;
          watchdog_seconds = 2.;
          respawn_backoff_seconds = 0.01;
        }
      in
      check_bool "Invalid_argument" true
        (match Shard.run cfg with
        | _ -> false
        | exception Invalid_argument _ -> true);
      check_bool "nothing written into dir" false (Sys.file_exists dir))

let test_result_summary () =
  let status i ~attempts ~quarantined =
    {
      Shard.s_index = i;
      s_slice = (i, i + 1);
      s_attempts = attempts;
      s_deaths = attempts - 1;
      s_quarantined = quarantined;
      s_last_death = "";
    }
  in
  let r =
    {
      Shard.campaign =
        Faultcamp.run ~faults:0 ~backend:Faultcamp.Interp (gcd8_case ());
      statuses =
        [
          status 0 ~attempts:1 ~quarantined:false;
          status 1 ~attempts:3 ~quarantined:true;
          status 2 ~attempts:2 ~quarantined:false;
        ];
      plan = 3;
      respawns = 3;
      wall_seconds = 1.5;
    }
  in
  check_int "workers spawned" 6 (Shard.workers_spawned r);
  check_int "quarantined" 1 (Shard.quarantined r);
  check_string "timing line"
    "coordinator: 3 shards, 6 workers spawned (3 respawns), 1 quarantined, \
     wall 1.500s"
    (Shard.timing r)

let suite =
  [
    Alcotest.test_case "shard slice laws" `Quick test_shard_slice_laws;
    Alcotest.test_case "chaos plans deterministic and survivable" `Quick
      test_chaos_plan_deterministic_and_survivable;
    Alcotest.test_case "chaos labels round trip" `Quick
      test_chaos_labels_round_trip;
    Alcotest.test_case "pinned chaos seed 2" `Quick test_pinned_chaos_seed_2;
    Alcotest.test_case "worker args wire format" `Quick
      test_worker_args_wire_format;
    Alcotest.test_case "shard result summary" `Quick test_result_summary;
    Alcotest.test_case "bad parameter rejected before spawning" `Quick
      test_bad_parameter_rejected_before_spawning;
    Alcotest.test_case "sharded report byte-identical" `Slow
      test_sharded_report_byte_identical;
    Alcotest.test_case "chaos recovery byte-identical" `Slow
      test_chaos_recovery_byte_identical;
    Alcotest.test_case "quarantine degrades to partial report" `Slow
      test_quarantine_degrades_to_partial_report;
  ]
