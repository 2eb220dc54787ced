(* Sharded campaign coordination.

   The design center is byte-identity: however many shards, workers,
   deaths, respawns and chaos disruptions a campaign goes through, the
   merged report must equal the one an uninterrupted single process
   prints. Everything here leans on machinery the resume path already
   proves out — workers are ordinary [Faultcamp.run] calls over a slice
   of the plan, recovery is journal replay, and the merge is a
   [replay_only] run over the union of the shard journals.

   Self-healing, concretely:
   - Liveness is read off the journal tail: workers append heartbeat
     lines ([{"hb":n}]) between task entries, so "the journal file
     changed" is the heartbeat signal and needs no extra channel.
   - A worker silent past the watchdog is SIGKILLed and respawned with
     exponential backoff; the respawn resumes from the journal shard.
   - Two consecutive deaths without forward progress (no new task
     entries) quarantine the shard: its slice is surrendered and the
     campaign degrades to a partial report instead of aborting.
     Progress is measured BEFORE chaos tail-corruption is applied, so a
     corrupted entry still counts as the progress it was. *)

type config = {
  case : Suite.case;
  seed : int;
  faults : int;
  max_cycles_factor : int;
  backend : Faultcamp.backend;
  deadline_seconds : float;
  slice_cycles : int;
  max_retries : int;
  backoff_seconds : float;
  deadline_profile : (string * float) list;
  shards : int;
  worker_jobs : int;
  dir : string;
  worker_exe : string;
  worker_argv_prefix : string list;
  watchdog_seconds : float;
  respawn_backoff_seconds : float;
  chaos : int option;
}

let default_config ~case ~dir ~worker_exe =
  {
    case;
    seed = 1;
    faults = 25;
    max_cycles_factor = 4;
    backend = Faultcamp.Auto;
    deadline_seconds = Faultcamp.default_deadline_seconds;
    slice_cycles = Faultcamp.default_slice_cycles;
    max_retries = Faultcamp.default_max_retries;
    backoff_seconds = Faultcamp.default_backoff_seconds;
    deadline_profile = [];
    shards = 1;
    worker_jobs = 1;
    dir;
    worker_exe;
    worker_argv_prefix = [];
    watchdog_seconds = 10.;
    respawn_backoff_seconds = 0.25;
    chaos = None;
  }

let validate cfg =
  if cfg.shards < 1 then invalid_arg "Shard: shards must be >= 1";
  if cfg.worker_jobs < 1 then invalid_arg "Shard: worker_jobs must be >= 1";
  if cfg.watchdog_seconds <= 0. then
    invalid_arg "Shard: watchdog_seconds must be > 0";
  if cfg.respawn_backoff_seconds < 0. then
    invalid_arg "Shard: respawn_backoff_seconds must be >= 0";
  if cfg.deadline_seconds < 0. then
    invalid_arg "Shard: deadline_seconds must be >= 0";
  if cfg.worker_exe = "" then invalid_arg "Shard: worker_exe must be set"

let journal_path cfg i =
  Filename.concat cfg.dir (Printf.sprintf "shard-%d-of-%d.jsonl" i cfg.shards)

let worker_args cfg ~baseline ~shard ~chaos_exec =
  cfg.worker_argv_prefix
  @ [
      "--workload"; cfg.case.Suite.case_name;
      "--faults"; string_of_int cfg.faults;
      "--seed"; string_of_int cfg.seed;
      "--max-cycles-factor"; string_of_int cfg.max_cycles_factor;
      "--jobs"; string_of_int cfg.worker_jobs;
      "--backend"; Faultcamp.backend_label cfg.backend;
      "--deadline"; Printf.sprintf "%g" cfg.deadline_seconds;
      "--slice"; string_of_int cfg.slice_cycles;
      "--retries"; string_of_int cfg.max_retries;
      "--backoff"; Printf.sprintf "%g" cfg.backoff_seconds;
    ]
  @ (if cfg.deadline_profile = [] then []
     else
       [
         "--deadline-profile";
         Budget.render_deadline_profile cfg.deadline_profile;
       ])
  @ [
      "--journal"; journal_path cfg shard;
      "--worker";
      "--shard-index"; string_of_int shard;
      "--shard-count"; string_of_int cfg.shards;
      "--baseline"; Faultcamp.baseline_to_string baseline;
    ]
  @
  match chaos_exec with
  | None -> []
  | Some d -> [ "--chaos-exec"; Chaos.disruption_label d ]

(* --- the worker side ----------------------------------------------------- *)

let heartbeat_interval = 0.25

let worker ~workload ~seed ~faults ~max_cycles_factor ~jobs ~backend
    ~deadline_seconds ~slice_cycles ~max_retries ~backoff_seconds
    ~deadline_profile ~shard_index ~shard_count ~journal_path:path ~baseline
    ~chaos_exec () =
  (* A fresh session: a terminal Ctrl-C is delivered to the coordinator
     only, which fans SIGINT out explicitly — otherwise workers would
     see the terminal's SIGINT *and* the coordinator's, and the second
     one kills them mid-journal. *)
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  match chaos_exec with
  | Some Chaos.Stall ->
      (* A silent hang: no journal, no heartbeats. The coordinator's
         watchdog must notice and SIGKILL us. *)
      while true do
        Unix.sleepf 3600.
      done;
      0
  | _ -> (
      try
        let case =
          match Faultcamp.find_workload workload with
          | Some c -> c
          | None -> failwith (Printf.sprintf "unknown workload %S" workload)
        in
        (* Resume the shard journal a predecessor left behind. Compacting
           first heals a chaos-torn tail (the rewrite drops the torn line
           and restores the trailing newline) and folds heartbeats and
           duplicate entries away before we append another run's worth. *)
        let resume_entries =
          if not (Sys.file_exists path) then None
          else
            match Journal.load path with
            | [] | (exception Sys_error _) -> None
            | _ :: _ -> (
                match Faultcamp.load_journal path with
                | exception Failure _ ->
                    (* A torn header: nothing usable, start fresh. *)
                    None
                | h, _ ->
                    if
                      h.Faultcamp.h_workload <> workload
                      || h.Faultcamp.h_seed <> seed
                      || h.Faultcamp.h_faults <> faults
                    then
                      failwith
                        (Printf.sprintf
                           "shard journal %s belongs to a different campaign \
                            (workload %S seed %d faults %d; this worker runs \
                            %S seed %d faults %d)"
                           path h.Faultcamp.h_workload h.Faultcamp.h_seed
                           h.Faultcamp.h_faults workload seed faults);
                    ignore (Faultcamp.compact path);
                    let _, entries = Faultcamp.load_journal path in
                    Some entries)
        in
        let token = Budget.token () in
        Budget.install_sigint token;
        (* Heartbeats ride the journal itself: a domain appends [{"hb":n}]
           lines (invisible to the replay table, which only reads ["task"]
           fields) so the coordinator's only liveness probe is "did the
           journal file change". The first beat is written immediately —
           a worker that dies early still leaves evidence it started. *)
        let stop_hb = Atomic.make false in
        let hb_domain = ref None in
        let on_writer w =
          hb_domain :=
            Some
              (Domain.spawn (fun () ->
                   let n = ref 0 in
                   while not (Atomic.get stop_hb) do
                     incr n;
                     Journal.append w [ ("hb", Journal.Int !n) ];
                     Unix.sleepf heartbeat_interval
                   done))
        in
        let on_entry =
          match chaos_exec with
          | Some (Chaos.Kill_after k) ->
              Some
                (fun n ->
                  (* The injected crash: SIGKILL, not exit — no atexit
                     handlers, no journal footer, exactly what a real
                     crash leaves behind. *)
                  if n >= k then Unix.kill (Unix.getpid ()) Sys.sigkill)
          | _ -> None
        in
        let campaign =
          Fun.protect
            ~finally:(fun () ->
              Atomic.set stop_hb true;
              Option.iter Domain.join !hb_domain)
            (fun () ->
              Faultcamp.run ~seed ~faults ~max_cycles_factor ~jobs ~backend
                ~deadline_seconds ~slice_cycles ~max_retries ~backoff_seconds
                ~deadline_profile
                ~shard:(shard_index, shard_count)
                ?baseline ?on_entry ~on_writer
                ~header_extra:
                  [
                    ("shard", Journal.Int shard_index);
                    ("shards", Journal.Int shard_count);
                  ]
                ~cancel:token ~journal_path:path ?resume_from:resume_entries
                case)
        in
        if campaign.Faultcamp.interrupted then 130 else 0
      with
      | Failure msg | Invalid_argument msg | Sys_error msg ->
          Printf.eprintf "error: %s\n%!" msg;
          1)

(* --- merging ------------------------------------------------------------- *)

let merge_journals ?cancel cfg ~baseline ~plan paths =
  (match cancel with
  | Some tok when Budget.cancel_requested tok ->
      failwith
        "Shard.merge_journals: interrupted — shard journals left intact"
  | _ -> ());
  if List.length paths <> cfg.shards then
    invalid_arg
      (Printf.sprintf "Shard.merge_journals: %d journal path(s) for %d shards"
         (List.length paths) cfg.shards);
  let shard_entries i path =
    if not (Sys.file_exists path) then []
    else
      match Journal.load path with
      | [] -> [] (* nothing survived — the slice re-runs as cancelled *)
      | raw_header :: _ ->
          let h, entries = Faultcamp.load_journal path in
          if
            h.Faultcamp.h_workload <> cfg.case.Suite.case_name
            || h.Faultcamp.h_seed <> cfg.seed
            || h.Faultcamp.h_faults <> cfg.faults
            || (match h.Faultcamp.h_baseline with
               | Some b -> b.Faultcamp.b_hash <> baseline.Faultcamp.b_hash
               | None -> true)
          then
            failwith
              (Printf.sprintf
                 "Shard.merge_journals: %s is a foreign shard journal \
                  (workload %S seed %d faults %d; this campaign is %S seed \
                  %d faults %d)"
                 path h.Faultcamp.h_workload h.Faultcamp.h_seed
                 h.Faultcamp.h_faults cfg.case.Suite.case_name cfg.seed
                 cfg.faults);
          (match
             ( Journal.find_int raw_header "shard",
               Journal.find_int raw_header "shards" )
           with
          | Some si, Some sn when si = i && sn = cfg.shards -> ()
          | got ->
              failwith
                (Printf.sprintf
                   "Shard.merge_journals: %s does not identify as shard %d \
                    of %d (header says %s)"
                   path i cfg.shards
                   (match got with
                   | Some si, Some sn -> Printf.sprintf "shard %d of %d" si sn
                   | _ -> "no shard identity")));
          let lo, hi = Faultcamp.shard_slice ~shards:cfg.shards ~plan i in
          List.iter
            (fun e ->
              match Journal.find_int e "task" with
              | Some t when t < lo || t >= hi ->
                  failwith
                    (Printf.sprintf
                       "Shard.merge_journals: %s records task %d outside \
                        shard %d's slice [%d, %d)"
                       path t i lo hi)
              | _ -> ())
            entries;
          entries
  in
  let entries = List.concat (List.mapi shard_entries paths) in
  (* The merge replays; it never simulates a mutant. [Interp] skips the
     compiled backend's (costly, pointless here) clean-design
     revalidation, and the report renders identically either way —
     backend fields are diagnostic, not rendered. *)
  Faultcamp.run ~seed:cfg.seed ~faults:cfg.faults
    ~max_cycles_factor:cfg.max_cycles_factor ~backend:Faultcamp.Interp
    ~deadline_seconds:cfg.deadline_seconds ~slice_cycles:cfg.slice_cycles
    ~max_retries:cfg.max_retries ~backoff_seconds:cfg.backoff_seconds
    ~deadline_profile:cfg.deadline_profile ~replay_only:true ~baseline ?cancel
    ~resume_from:entries cfg.case

(* --- the coordinator ----------------------------------------------------- *)

type shard_status = {
  s_index : int;
  s_slice : int * int;
  s_attempts : int;
  s_deaths : int;
  s_quarantined : bool;
  s_last_death : string;
}

type result = {
  campaign : Faultcamp.t;
  statuses : shard_status list;
  plan : int;
  respawns : int;
  wall_seconds : float;
}

type state = {
  index : int;
  path : string;
  lo : int;
  hi : int;
  mutable pid : int option;
  mutable attempt : int;  (* workers spawned so far *)
  mutable deaths : int;
  mutable streak : int;  (* consecutive deaths, reset to 1 by progress *)
  mutable quarantined : bool;
  mutable completed : bool;
  mutable next_spawn : float;
  mutable last_size : int;
  mutable last_activity : float;
  mutable tasks_at_spawn : int;
  mutable watchdog_fired : bool;
  mutable last_death : string;
}

let now () = Unix.gettimeofday ()

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Distinct task indices a journal shard has landed, within [lo, hi).
   Distinct — not line count — so both compaction (which dedups) and
   re-execution after a torn tail (which duplicates) leave the measure
   monotone in actual progress. *)
let tasks_covered ~lo ~hi path =
  if not (Sys.file_exists path) then 0
  else
    match Journal.load path with
    | entries ->
        let seen = Hashtbl.create 32 in
        List.iter
          (fun e ->
            match Journal.find_int e "task" with
            | Some t when t >= lo && t < hi -> Hashtbl.replace seen t ()
            | _ -> ())
          entries;
        Hashtbl.length seen
    | exception Sys_error _ -> 0

let status_label = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by signal %d" n

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run ?cancel cfg =
  validate cfg;
  let started = now () in
  let plan, baseline = Faultcamp.prepare ~seed:cfg.seed ~faults:cfg.faults cfg.case in
  let chaos_plan =
    Option.map (fun seed -> Chaos.plan ~seed ~shards:cfg.shards) cfg.chaos
  in
  mkdir_p cfg.dir;
  let respawns = ref 0 in
  let states =
    Array.init cfg.shards (fun i ->
        let lo, hi = Faultcamp.shard_slice ~shards:cfg.shards ~plan i in
        {
          index = i;
          path = journal_path cfg i;
          lo;
          hi;
          pid = None;
          attempt = 0;
          deaths = 0;
          streak = 0;
          quarantined = false;
          (* An empty slice needs no worker at all. *)
          completed = hi = lo;
          next_spawn = 0.;
          last_size = 0;
          last_activity = 0.;
          tasks_at_spawn = 0;
          watchdog_fired = false;
          last_death = "";
        })
  in
  let cancelled () =
    match cancel with Some tok -> Budget.cancel_requested tok | None -> false
  in
  let chaos_step st attempt =
    Option.bind chaos_plan (fun c ->
        Chaos.step c ~shard:st.index ~attempt)
  in
  let spawn st =
    let chaos_exec =
      Option.map (fun s -> s.Chaos.disrupt) (chaos_step st st.attempt)
    in
    let args = worker_args cfg ~baseline ~shard:st.index ~chaos_exec in
    let argv = Array.of_list (cfg.worker_exe :: args) in
    let dn_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let dn_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () ->
          Unix.close dn_in;
          Unix.close dn_out)
        (fun () ->
          (* Worker reports go to /dev/null (the coordinator renders the
             merged one); stderr is inherited so real worker errors stay
             visible. *)
          Unix.create_process cfg.worker_exe argv dn_in dn_out Unix.stderr)
    in
    if st.attempt > 0 then incr respawns;
    st.pid <- Some pid;
    st.attempt <- st.attempt + 1;
    st.tasks_at_spawn <- tasks_covered ~lo:st.lo ~hi:st.hi st.path;
    st.last_size <- file_size st.path;
    st.last_activity <- now ();
    st.watchdog_fired <- false
  in
  let handle_death st status =
    st.pid <- None;
    (* Progress BEFORE chaos corruption: a corrupted entry was still
       progress when the worker made it, and counting it as none would
       let a chaos schedule quarantine a perfectly healthy shard. *)
    let progressed = tasks_covered ~lo:st.lo ~hi:st.hi st.path > st.tasks_at_spawn in
    (match chaos_step st (st.attempt - 1) with
    | Some { Chaos.corrupt_tail = true; _ } ->
        ignore (Chaos.corrupt_journal_tail st.path)
    | _ -> ());
    let covered = tasks_covered ~lo:st.lo ~hi:st.hi st.path in
    match status with
    | Unix.WEXITED 0 when covered = st.hi - st.lo ->
        (* A clean finish (a chaos kill that never fired ends up here
           too — unless its corruption just tore the last record, in
           which case the respawn below re-executes it). *)
        st.completed <- true
    | status ->
        st.deaths <- st.deaths + 1;
        st.last_death <-
          (if st.watchdog_fired then
             Printf.sprintf "silent for %gs, killed by the watchdog (%s)"
               cfg.watchdog_seconds (status_label status)
           else status_label status);
        if covered = st.hi - st.lo then st.completed <- true
        else begin
          st.streak <- (if progressed then 1 else st.streak + 1);
          if st.streak >= 2 then st.quarantined <- true
          else
            st.next_spawn <-
              now ()
              +. cfg.respawn_backoff_seconds
                 *. (2. ** float_of_int (max 0 (st.deaths - 1)))
        end
  in
  let step st =
    if not (st.completed || st.quarantined) then
      match st.pid with
      | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              (* Alive: the journal tail is the heartbeat. Any change
                 (growth, or shrinkage from the worker's own compaction)
                 counts as activity. *)
              let sz = file_size st.path in
              if sz <> st.last_size then begin
                st.last_size <- sz;
                st.last_activity <- now ()
              end
              else if now () -. st.last_activity > cfg.watchdog_seconds then begin
                st.watchdog_fired <- true;
                try Unix.kill pid Sys.sigkill
                with Unix.Unix_error _ -> ()
              end
          | _, status -> handle_death st status)
      | None -> if now () >= st.next_spawn then spawn st
  in
  let unfinished () =
    Array.exists (fun st -> not (st.completed || st.quarantined)) states
  in
  while unfinished () && not (cancelled ()) do
    Array.iter step states;
    Unix.sleepf 0.02
  done;
  if cancelled () then begin
    (* SIGINT fan-out: forward the interrupt, then drain every worker to
       a valid journal footer (their own token handlers write it); only
       stragglers past the grace period are SIGKILLed. The journals are
       kept either way — this campaign resumes. *)
    Array.iter
      (fun st ->
        match st.pid with
        | Some pid -> ( try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ())
        | None -> ())
      states;
    let grace = now () +. 10. in
    while
      Array.exists (fun st -> st.pid <> None) states && now () < grace
    do
      Array.iter
        (fun st ->
          match st.pid with
          | Some pid -> (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _ -> st.pid <- None)
          | None -> ())
        states;
      Unix.sleepf 0.02
    done;
    Array.iter
      (fun st ->
        match st.pid with
        | Some pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            st.pid <- None
        | None -> ())
      states;
    failwith
      (Printf.sprintf
         "Shard.run: interrupted — %d shard journal(s) left intact in %s for \
          resume"
         cfg.shards cfg.dir)
  end;
  let campaign =
    merge_journals ?cancel cfg ~baseline ~plan
      (List.init cfg.shards (journal_path cfg))
  in
  {
    campaign;
    statuses =
      Array.to_list
        (Array.map
           (fun st ->
             {
               s_index = st.index;
               s_slice = (st.lo, st.hi);
               s_attempts = st.attempt;
               s_deaths = st.deaths;
               s_quarantined = st.quarantined;
               s_last_death = st.last_death;
             })
           states);
    plan;
    respawns = !respawns;
    wall_seconds = now () -. started;
  }

let render ?verbose r =
  let base = Report.campaign_to_string ?verbose r.campaign in
  let quarantined =
    List.filter_map
      (fun s ->
        if s.s_quarantined then Some (s.s_index, s.s_slice, s.s_last_death)
        else None)
      r.statuses
  in
  base ^ Report.incomplete_section quarantined
