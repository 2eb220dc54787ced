module Compile = Compiler.Compile
module Memory = Operators.Memory
module Fault = Faults.Fault

type backend = Interp | Compiled | Auto

let backend_label = function
  | Interp -> "interp"
  | Compiled -> "compiled"
  | Auto -> "auto"

let backend_of_label = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | "auto" -> Some Auto
  | _ -> None

type outcome =
  | Killed of string
  | Survived
  | Timeout_cycles
  | Timeout_wall
  | Cancelled
  | Crashed of string

type mutant = {
  fault : Fault.t;
  outcome : outcome;
  mutant_cycles : int;
  retries : int;
  quarantined : bool;
  replayed : bool;
}

type class_stats = {
  cls : string;
  injected : int;
  killed : int;
  survived : int;
  timed_out_cycles : int;
  timed_out_wall : int;
  cancelled : int;
  crashed : int;
  quarantined : int;
  retried : int;
}

type t = {
  workload : string;
  seed : int;
  requested : int;
  jobs : int;
  backend : backend;
  backend_used : backend;
  clean_passed : bool;
  clean_cycles : int;
  clean_oob : int;
  cycle_budget : int;
  deadline_seconds : float;
  slice_cycles : int;
  max_retries : int;
  backoff_seconds : float;
  mutants : mutant list;
  by_class : class_stats list;
  kill_rate : float;
  interrupted : bool;
  replayed : int;
  wall_seconds : float;
  total_mutant_cycles : int;
  mutants_per_second : float;
}

let default_deadline_seconds = 60.
let default_slice_cycles = 5_000
let default_max_retries = 2
let default_backoff_seconds = 0.05

let default_workloads () =
  Suite.builtin_cases ()
  @ [
      (* The acceptance workload: gcd over 8 pairs at width 8's regression
         size, under its canonical name. *)
      {
        Suite.case_name = "gcd8";
        source = Workloads.Kernels.gcd_source ();
        inits =
          [
            ( "input",
              [ 12; 18; 7; 7; 100; 75; 9; 28; 14; 21; 5; 40; 33; 11; 64; 48 ]
            );
          ];
      };
      {
        Suite.case_name = "divmod";
        source = Workloads.Kernels.divmod_source ~pairs:8;
        inits =
          [
            (* Ordinary pairs plus the convention's edge cases: division
               by zero and signed overflow (-128 / -1 as 8-bit words). *)
            ( "input",
              [ 100; 7; 250; 3; 42; 0; 0; 0; 128; 255; 255; 255; 17; 251; 128; 5 ]
            );
          ];
      };
    ]

let find_workload name =
  List.find_opt
    (fun (c : Suite.case) -> c.Suite.case_name = name)
    (default_workloads ())

(* --- clean-run baseline checkpoints ------------------------------------- *)

type baseline = { b_clean_cycles : int; b_clean_oob : int; b_hash : string }

(* FNV-1a over a canonical dump of everything the baseline vouches for:
   the golden model's final memories and assertion count, plus the clean
   hardware run's cycle count and OOB baseline. A resumed or sharded
   worker that recomputes the (cheap) golden model and matches this hash
   may skip re-simulating the clean hardware design. *)
let baseline_hash ~golden_stores ~golden_asserts ~clean_cycles ~clean_oob =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, store) ->
      Buffer.add_string buf name;
      Buffer.add_char buf ':';
      List.iter
        (fun v ->
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf ',')
        (Memory.to_list store);
      Buffer.add_char buf ';')
    golden_stores;
  Buffer.add_string buf
    (Printf.sprintf "asserts=%d;cycles=%d;oob=%d" golden_asserts clean_cycles
       clean_oob);
  let h = ref 0x3459df3cba21f365 (* FNV-style basis, truncated to fit *) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    (Buffer.contents buf);
  Printf.sprintf "%016Lx" (Int64.of_int !h)

let baseline_to_string b =
  Printf.sprintf "%d:%d:%s" b.b_clean_cycles b.b_clean_oob b.b_hash

let baseline_of_string s =
  match String.split_on_char ':' s with
  | [ cycles; oob; hash ] -> (
      match (int_of_string_opt cycles, int_of_string_opt oob) with
      | Some c, Some o when c >= 0 && o >= 0 && hash <> "" ->
          Some { b_clean_cycles = c; b_clean_oob = o; b_hash = hash }
      | _ -> None)
  | _ -> None

let count_check_failures (run : Simulate.rtg_run) =
  List.fold_left
    (fun acc (r : Simulate.config_run) ->
      acc
      + List.length
          (List.filter
             (function
               | Operators.Models.Check_failed _ -> true
               | Operators.Models.Probe_sample _ -> false)
             r.Simulate.notifications))
    0 run.Simulate.runs

let total_oob stores =
  List.fold_left
    (fun acc (_, store) -> acc + Memory.out_of_range_accesses store)
    0 stores

(* The verifier's kill criteria, in the order they are reported: the
   watchdog verdicts first (a budget-stopped run compared nothing), then
   final memory contents diverging from the golden model, assertion
   checks firing a different number of times, and the out-of-range
   access count departing from the clean hardware run's. *)
let judge_values ~golden_stores ~golden_asserts ~clean_hw_oob ~all_completed
    ~checks hw_stores =
  if not all_completed then Timeout_cycles
  else
    let mem_kill =
          List.fold_left2
            (fun acc (name, g) (_, h) ->
              match acc with
              | Some _ -> acc
              | None ->
                  let diffs = Memory.diff g h in
                  if diffs = [] then None
                  else
                    Some
                      (Printf.sprintf "memory %s: %d mismatches" name
                         (List.length diffs)))
            None golden_stores hw_stores
        in
        (match mem_kill with
        | Some reason -> Killed reason
        | None ->
            if checks <> golden_asserts then
              Killed
                (Printf.sprintf
                   "assertion divergence: %d software, %d hardware"
                   golden_asserts checks)
            else
              let oob = total_oob hw_stores in
              if oob <> clean_hw_oob then
                Killed
                  (Printf.sprintf "oob divergence: clean=%d mutant=%d"
                     clean_hw_oob oob)
              else Survived)

let judge ~golden_stores ~golden_asserts ~clean_hw_oob hw_stores
    (run : Simulate.rtg_run) =
  match run.Simulate.budget_failure with
  | Some Budget.Timeout_wall -> Timeout_wall
  | Some Budget.Cancelled -> Cancelled
  | Some _ -> Timeout_cycles
  | None ->
      judge_values ~golden_stores ~golden_asserts ~clean_hw_oob
        ~all_completed:run.Simulate.all_completed
        ~checks:(count_check_failures run) hw_stores

let class_breakdown mutants =
  List.map
    (fun cls ->
      let mine =
        List.filter (fun m -> Fault.fault_class m.fault = cls) mutants
      in
      let count p = List.length (List.filter p mine) in
      {
        cls;
        injected = List.length mine;
        killed = count (fun m -> match m.outcome with Killed _ -> true | _ -> false);
        survived = count (fun m -> m.outcome = Survived);
        timed_out_cycles = count (fun m -> m.outcome = Timeout_cycles);
        timed_out_wall = count (fun m -> m.outcome = Timeout_wall);
        cancelled = count (fun m -> m.outcome = Cancelled);
        crashed = count (fun m -> match m.outcome with Crashed _ -> true | _ -> false);
        quarantined = count (fun m -> m.quarantined);
        retried = count (fun m -> m.retries > 0);
      })
    Fault.all_classes

(* --- retry / quarantine ------------------------------------------------ *)

(* A crashed attempt is retried with exponential backoff — unless it
   fails twice with the identical exception, in which case it is a
   deterministic crasher: quarantined immediately and never retried
   again (retrying it forever would only burn the campaign's time). *)
let with_retries ?(max_retries = default_max_retries)
    ?(backoff_seconds = default_backoff_seconds) ?cancel ~fault f =
  let cancelled () =
    match cancel with Some tok -> Budget.cancel_requested tok | None -> false
  in
  let crash ~attempt ~quarantined msg =
    {
      fault;
      outcome = Crashed msg;
      mutant_cycles = 0;
      retries = attempt;
      quarantined;
      replayed = false;
    }
  in
  let rec go attempt last_error =
    match f ~attempt with
    | m -> { m with retries = attempt }
    | exception e ->
        let msg = Printexc.to_string e in
        if last_error = Some msg then crash ~attempt ~quarantined:true msg
        else if attempt >= max_retries || cancelled () then
          crash ~attempt ~quarantined:false msg
        else begin
          if backoff_seconds > 0. then
            Unix.sleepf (backoff_seconds *. (2. ** float_of_int attempt));
          go (attempt + 1) (Some msg)
        end
  in
  go 0 None

(* --- execution core ----------------------------------------------------- *)

(* Crash isolation backstop: [exec] is expected to capture its own
   failures (see {!with_retries}); should it raise anyway, the pool
   captures the exception and it becomes a plain [Crashed] mutant here,
   never an abort of the other several hundred mutants. *)
let run_mutants ?(jobs = 1) ?on_result ~exec plan =
  let plan_arr = Array.of_list plan in
  let to_mutant i = function
    | Ok mutant -> mutant
    | Error e ->
        {
          fault = plan_arr.(i);
          outcome = Crashed (Printexc.to_string e);
          mutant_cycles = 0;
          retries = 0;
          quarantined = false;
          replayed = false;
        }
  in
  let pool_on_result =
    Option.map (fun g i r -> g i (to_mutant i r)) on_result
  in
  List.mapi to_mutant
    (Pool.with_pool ~jobs (fun pool ->
         Pool.mapi ?on_result:pool_on_result pool exec plan))

(* Split [xs] into consecutive chunks of at most [n] elements — the
   bit-lane batches of the compiled backend. *)
let chunk n xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let rec go = function
    | [] -> []
    | xs ->
        let batch, rest = take n [] xs in
        batch :: go rest
  in
  go xs

(* --- journal ------------------------------------------------------------ *)

let journal_kind = "faultcamp"
let journal_version = 1

let outcome_label = function
  | Killed _ -> "killed"
  | Survived -> "survived"
  | Timeout_cycles -> Budget.failure_label Budget.Timeout_cycles
  | Timeout_wall -> Budget.failure_label Budget.Timeout_wall
  | Cancelled -> Budget.failure_label Budget.Cancelled
  | Crashed _ -> "crashed"

let outcome_of_entry entry =
  let detail () =
    Option.value ~default:"" (Journal.find_string entry "detail")
  in
  match Journal.find_string entry "outcome" with
  | Some "killed" -> Some (Killed (detail ()))
  | Some "survived" -> Some Survived
  | Some "timeout_cycles" -> Some Timeout_cycles
  | Some "timeout_wall" -> Some Timeout_wall
  | Some "crashed" -> Some (Crashed (detail ()))
  | _ -> None

let entry_of_mutant i m =
  let base =
    [
      ("task", Journal.Int i);
      ("fault", Journal.String (Fault.describe m.fault));
      ("class", Journal.String (Fault.fault_class m.fault));
      ("outcome", Journal.String (outcome_label m.outcome));
    ]
  in
  let detail =
    match m.outcome with
    | Killed reason | Crashed reason -> [ ("detail", Journal.String reason) ]
    | _ -> []
  in
  base @ detail
  @ [
      ("cycles", Journal.Int m.mutant_cycles);
      ("retries", Journal.Int m.retries);
      ("quarantined", Journal.Bool m.quarantined);
    ]

type journal_header = {
  h_workload : string;
  h_seed : int;
  h_faults : int;
  h_max_cycles_factor : int;
  h_deadline_seconds : float;
  h_slice_cycles : int;
  h_max_retries : int;
  h_backoff_seconds : float;
  h_backend : backend;
  h_deadline_profile : (string * float) list;
  h_baseline : baseline option;
}

let header_obj h =
  [
    ("journal", Journal.String journal_kind);
    ("version", Journal.Int journal_version);
    ("workload", Journal.String h.h_workload);
    ("seed", Journal.Int h.h_seed);
    ("faults", Journal.Int h.h_faults);
    ("max_cycles_factor", Journal.Int h.h_max_cycles_factor);
    ("deadline_seconds", Journal.Float h.h_deadline_seconds);
    ("slice_cycles", Journal.Int h.h_slice_cycles);
    ("max_retries", Journal.Int h.h_max_retries);
    ("backoff_seconds", Journal.Float h.h_backoff_seconds);
    ("backend", Journal.String (backend_label h.h_backend));
  ]
  @ (if h.h_deadline_profile = [] then []
     else
       [
         ( "deadline_profile",
           Journal.String
             (Budget.render_deadline_profile h.h_deadline_profile) );
       ])
  @
  match h.h_baseline with
  | None -> []
  | Some b ->
      [
        ("clean_cycles", Journal.Int b.b_clean_cycles);
        ("clean_oob", Journal.Int b.b_clean_oob);
        ("baseline", Journal.String b.b_hash);
      ]

let header_of_obj obj =
  match
    ( Journal.find_string obj "journal",
      Journal.find_string obj "workload",
      Journal.find_int obj "seed",
      Journal.find_int obj "faults",
      Journal.find_int obj "max_cycles_factor" )
  with
  | Some kind, Some w, Some seed, Some faults, Some factor
    when kind = journal_kind ->
      Some
        {
          h_workload = w;
          h_seed = seed;
          h_faults = faults;
          h_max_cycles_factor = factor;
          h_deadline_seconds =
            Option.value ~default:default_deadline_seconds
              (Journal.find_float obj "deadline_seconds");
          h_slice_cycles =
            Option.value ~default:default_slice_cycles
              (Journal.find_int obj "slice_cycles");
          h_max_retries =
            Option.value ~default:default_max_retries
              (Journal.find_int obj "max_retries");
          h_backoff_seconds =
            Option.value ~default:default_backoff_seconds
              (Journal.find_float obj "backoff_seconds");
          h_backend =
            (* Journals predating the compiled backend ran the interpreter. *)
            Option.value ~default:Interp
              (Option.bind (Journal.find_string obj "backend") backend_of_label);
          h_deadline_profile =
            (match Journal.find_string obj "deadline_profile" with
            | None -> []
            | Some s -> (
                try
                  Budget.parse_deadline_profile
                    ~valid_classes:Fault.all_classes s
                with Invalid_argument msg ->
                  failwith
                    (Printf.sprintf
                       "journal header carries a bad deadline profile: %s" msg)
                ));
          h_baseline =
            (match
               ( Journal.find_int obj "clean_cycles",
                 Journal.find_int obj "clean_oob",
                 Journal.find_string obj "baseline" )
             with
            | Some c, Some o, Some hsh when c >= 0 && o >= 0 ->
                Some { b_clean_cycles = c; b_clean_oob = o; b_hash = hsh }
            | _ -> None);
        }
  | _ -> None

(* Contiguous slice of a [plan]-task campaign owned by shard [i] of
   [shards]: the classic balanced split, [i*plan/shards, (i+1)*plan/shards).
   Laws the tests pin down: slices are disjoint, ordered, and their
   union covers [0, plan) exactly for every shard count. *)
let shard_slice ~shards ~plan i =
  if shards < 1 then invalid_arg "Faultcamp.shard_slice: shards must be >= 1";
  if plan < 0 then invalid_arg "Faultcamp.shard_slice: plan must be >= 0";
  if i < 0 || i >= shards then
    invalid_arg
      (Printf.sprintf
         "Faultcamp.shard_slice: shard index %d out of range for %d shard(s)" i
         shards);
  (i * plan / shards, (i + 1) * plan / shards)

(* Completed-task entries of a loaded journal, keyed by plan index; a
   later entry for the same index wins (it came from a later resume). *)
let replay_table entries =
  let table = Hashtbl.create 64 in
  List.iter
    (fun entry ->
      match Journal.find_int entry "task" with
      | Some i when i >= 0 -> Hashtbl.replace table i entry
      | _ -> ())
    entries;
  table

(* --- the campaign driver ------------------------------------------------ *)

let validate_params ~faults ~max_cycles_factor ~jobs ~deadline_seconds
    ~slice_cycles ~max_retries ~backoff_seconds ~deadline_profile ~stop_after =
  let bad fmt = Printf.ksprintf invalid_arg ("Faultcamp: " ^^ fmt) in
  if faults < 0 then bad "faults must be >= 0 (got %d)" faults;
  if max_cycles_factor < 1 then
    bad "max_cycles_factor must be >= 1 (got %d)" max_cycles_factor;
  if jobs < 1 then bad "jobs must be >= 1 (got %d)" jobs;
  if slice_cycles < 1 then
    bad "slice_cycles must be >= 1 (got %d)" slice_cycles;
  if max_retries < 0 then bad "max_retries must be >= 0 (got %d)" max_retries;
  if backoff_seconds < 0. then
    bad "backoff_seconds must be >= 0 (got %g)" backoff_seconds;
  if deadline_seconds < 0. then
    bad "deadline_seconds must be >= 0 (got %g)" deadline_seconds;
  List.iter
    (fun (cls, sec) ->
      if not (List.mem cls Fault.all_classes) then
        bad "deadline profile names unknown fault class %S" cls;
      if sec < 0. then bad "deadline profile for class %S must be >= 0" cls)
    deadline_profile;
  match stop_after with
  | Some k when k < 1 -> bad "stop_after must be >= 1 (got %d)" k
  | _ -> ()

let run ?(seed = 1) ?(faults = 25) ?(max_cycles_factor = 4) ?(jobs = 1)
    ?(backend = Interp)
    ?(deadline_seconds = default_deadline_seconds)
    ?(slice_cycles = default_slice_cycles)
    ?(max_retries = default_max_retries)
    ?(backoff_seconds = default_backoff_seconds)
    ?(deadline_profile = []) ?shard ?(replay_only = false) ?baseline
    ?on_entry ?on_writer ?(header_extra = []) ?cancel ?journal_path
    ?resume_from ?stop_after (case : Suite.case) =
  validate_params ~faults ~max_cycles_factor ~jobs ~deadline_seconds
    ~slice_cycles ~max_retries ~backoff_seconds ~deadline_profile ~stop_after;
  (match shard with
  | Some (i, n) when n < 1 || i < 0 || i >= n ->
      invalid_arg
        (Printf.sprintf
           "Faultcamp.run: shard index %d out of range for %d shard(s)" i n)
  | _ -> ());
  let wall_started = Unix.gettimeofday () in
  let cancel =
    (* --stop-after needs a token to fire even when the caller gave none. *)
    match (cancel, stop_after) with
    | None, Some _ -> Some (Budget.token ())
    | c, _ -> c
  in
  let prog = Lang.Parser.parse_string case.Suite.source in
  let compiled = Compile.compile prog in
  let golden_lookup, golden_stores =
    Verify.memory_env prog ~inits:case.Suite.inits
  in
  let _, golden_stats = Lang.Interp.run ~memories:golden_lookup prog in
  let golden_asserts = golden_stats.Lang.Interp.asserts_failed in
  (* The clean-run baseline. With a checkpoint from a journal header
     (resume / sharded workers) the golden model is recomputed — it is
     cheap and its stores are needed for judging anyway — and hashed
     together with the checkpointed clean values; a match vouches for
     the whole clean hardware run, which is then skipped. A mismatch
     means the workload or its stimuli changed under the journal. *)
  let clean_cycles, clean_hw_oob, clean_stores =
    match baseline with
    | Some b ->
        let recomputed =
          baseline_hash ~golden_stores ~golden_asserts
            ~clean_cycles:b.b_clean_cycles ~clean_oob:b.b_clean_oob
        in
        if recomputed <> b.b_hash then
          failwith
            (Printf.sprintf
               "Faultcamp.run: baseline hash mismatch for workload %S \
                (checkpointed %s, recomputed %s) — the workload changed \
                since the journal was written"
               case.Suite.case_name b.b_hash recomputed);
        (b.b_clean_cycles, b.b_clean_oob, golden_stores)
    | None ->
        let clean_lookup, clean_stores =
          Verify.memory_env prog ~inits:case.Suite.inits
        in
        let clean_run = Simulate.run_compiled ~memories:clean_lookup compiled in
        let clean_hw_oob = total_oob clean_stores in
        let clean_passed =
          clean_run.Simulate.all_completed
          && List.for_all2
               (fun (_, g) (_, h) -> Memory.diff g h = [])
               golden_stores clean_stores
          && count_check_failures clean_run = golden_asserts
        in
        if not clean_passed then
          failwith
            (Printf.sprintf
               "Faultcamp.run: workload %S fails verification before any \
                fault is injected"
               case.Suite.case_name);
        (clean_run.Simulate.total_cycles, clean_hw_oob, clean_stores)
  in
  let bline =
    {
      b_clean_cycles = clean_cycles;
      b_clean_oob = clean_hw_oob;
      b_hash =
        (match baseline with
        | Some b -> b.b_hash
        | None ->
            baseline_hash ~golden_stores ~golden_asserts ~clean_cycles
              ~clean_oob:clean_hw_oob);
    }
  in
  (* A mutant that runs much longer than the clean design is detected by
     the watchdog rather than simulated forever; the product is clamped
     so a very long clean run yields max_int, never a wrapped negative
     budget. *)
  let budget_cycles = Budget.cycle_budget ~max_cycles_factor clean_cycles in
  (* Per-fault-class wall deadlines: the profile overrides the global
     deadline for the classes it names (0 disables the watchdog for
     that class — see {!Budget.start}). *)
  let deadline_for fault =
    match List.assoc_opt (Fault.fault_class fault) deadline_profile with
    | Some sec -> sec
    | None -> deadline_seconds
  in
  (* Backend resolution. [Compiled]/[Auto] require the acyclicity
     certificate ({!Fastsim.admissible}) and then prove the fidelity
     contract on the clean design before any mutant trusts the compiled
     evaluator: completion, cycle count, check failures, final memories
     and OOB counters must all match the event-driven clean run. [Auto]
     falls back to the interpreter on any failure; a forced [Compiled]
     backend reports it instead of silently changing semantics. *)
  let resolve_compiled () =
    let fall msg =
      match backend with
      | Compiled ->
          failwith (Printf.sprintf "Faultcamp.run: compiled backend: %s" msg)
      | _ ->
          Printf.eprintf "faultcamp: auto backend: %s; using the interpreter\n%!"
            msg;
          None
    in
    match Fastsim.admissible compiled with
    | Error msg -> fall msg
    | Ok () -> (
        match Fastsim.compile compiled with
        | exception e -> fall (Printexc.to_string e)
        | fast -> (
            let lookup, stores =
              Verify.memory_env prog ~inits:case.Suite.inits
            in
            match
              Fastsim.run ~max_cycles:budget_cycles fast
                [| Fastsim.clean_lane lookup |]
            with
            | exception e -> fall (Printexc.to_string e)
            | res ->
                let r = res.(0) in
                if
                  r.Fastsim.completed
                  && r.Fastsim.total_cycles = clean_cycles
                  && r.Fastsim.checks = golden_asserts
                  && total_oob stores = clean_hw_oob
                  && List.for_all2
                       (fun (_, a) (_, b) -> Memory.diff a b = [])
                       clean_stores stores
                then Some fast
                else
                  fall
                    "compiled backend diverges from the event-driven \
                     reference on the clean design"))
  in
  let fast =
    match backend with Interp -> None | Compiled | Auto -> resolve_compiled ()
  in
  let backend_used = match fast with None -> Interp | Some _ -> Compiled in
  (* Plan generation stays single-threaded (one RNG stream); only the
     independent mutant executions below fan out over the pool. *)
  let plan = Fault.plan ~seed ~n:faults compiled in
  let plan_len = List.length plan in
  (* Sharding: a worker owns a contiguous slice of the plan; every task
     outside it (and, under [replay_only], every task the journals did
     not cover) becomes a [Cancelled] placeholder — never executed,
     never journaled (see {!journal_mutant}), and excluded from this
     run's own [interrupted] verdict. *)
  let in_shard =
    match shard with
    | None -> fun _ -> true
    | Some (idx, n) ->
        let lo, hi = shard_slice ~shards:n ~plan:plan_len idx in
        fun i -> i >= lo && i < hi
  in
  let skipped fault =
    {
      fault;
      outcome = Cancelled;
      mutant_cycles = 0;
      retries = 0;
      quarantined = false;
      replayed = false;
    }
  in
  let replay =
    match resume_from with
    | None -> fun _ -> None
    | Some entries ->
        let table = replay_table entries in
        let plan_arr = Array.of_list plan in
        let lookup i =
          match Hashtbl.find_opt table i with
          | None -> None
          | Some entry ->
              if i >= Array.length plan_arr then
                failwith
                  (Printf.sprintf
                     "Faultcamp.run: journal entry for task %d but the plan \
                      has only %d faults — journal and plan disagree"
                     i (Array.length plan_arr));
              let expect = Fault.describe plan_arr.(i) in
              (match Journal.find_string entry "fault" with
              | Some got when got <> expect ->
                  failwith
                    (Printf.sprintf
                       "Faultcamp.run: journal task %d recorded fault %S but \
                        the plan generates %S — wrong journal for this \
                        workload/seed?"
                       i got expect)
              | _ -> ());
              (match outcome_of_entry entry with
              | None ->
                  failwith
                    (Printf.sprintf
                       "Faultcamp.run: journal task %d has an unknown \
                        outcome — journal written by an incompatible version?"
                       i)
              | Some outcome ->
                  Some
                    {
                      fault = plan_arr.(i);
                      outcome;
                      mutant_cycles =
                        Option.value ~default:0
                          (Journal.find_int entry "cycles");
                      retries =
                        Option.value ~default:0
                          (Journal.find_int entry "retries");
                      quarantined =
                        Option.value ~default:false
                          (Journal.find_bool entry "quarantined");
                      replayed = true;
                    })
        in
        (* Validate every journaled entry before dispatch: a mismatched
           journal must abort the run, not surface as per-mutant crashes
           once the pool has swallowed the exception. *)
        Hashtbl.iter (fun i _ -> ignore (lookup i)) table;
        lookup
  in
  let journal =
    match journal_path with
    | None -> None
    | Some path ->
        let header =
          header_obj
            {
              h_workload = case.Suite.case_name;
              h_seed = seed;
              h_faults = faults;
              h_max_cycles_factor = max_cycles_factor;
              h_deadline_seconds = deadline_seconds;
              h_slice_cycles = slice_cycles;
              h_max_retries = max_retries;
              h_backoff_seconds = backoff_seconds;
              h_backend = backend;
              h_deadline_profile = deadline_profile;
              h_baseline = Some bline;
            }
          @ header_extra
        in
        Some
          (if resume_from = None then Journal.create ~path ~header
           else Journal.append_to ~path)
  in
  (match (journal, on_writer) with
  | Some w, Some f -> f w
  | _ -> ());
  let journal_entries = Atomic.make 0 in
  let journal_mutant i (m : mutant) =
    (* Replayed results are already in the file; cancelled ones must not
       be recorded as done — they are exactly the work a resume redoes. *)
    if (not m.replayed) && m.outcome <> Cancelled then
      match journal with
      | None -> ()
      | Some w ->
          (try Journal.append w (entry_of_mutant i m)
           with Sys_error msg ->
             Printf.eprintf "warning: journal write failed: %s\n%!" msg);
          let written = Atomic.fetch_and_add journal_entries 1 + 1 in
          (match on_entry with Some f -> f written | None -> ());
          (match (stop_after, cancel) with
          | Some k, Some tok when written >= k -> Budget.cancel tok
          | _ -> ())
  in
  let exec_interp fault =
    with_retries ~max_retries ~backoff_seconds ?cancel ~fault
      (fun ~attempt ->
            ignore attempt;
            (* Each attempt gets a fresh wall-clock deadline (per-class
               when the profile names this fault's class); the
               cancellation token is shared with the whole campaign. *)
            let budget =
              Budget.start ~wall_seconds:(deadline_for fault) ?token:cancel
                ~slice_cycles ()
            in
            match Budget.check budget with
            | Some Budget.Cancelled ->
                (* Shutdown requested before this mutant started: do not
                   spin up a simulation just to cancel it. *)
                {
                  fault;
                  outcome = Cancelled;
                  mutant_cycles = 0;
                  retries = 0;
                  quarantined = false;
                  replayed = false;
                }
            | _ ->
                let hw_lookup, hw_stores =
                  Verify.memory_env prog ~inits:case.Suite.inits
                in
                Fault.apply_to_memories hw_lookup fault;
                let injections =
                  match Fault.perturbation fault with
                  | Some (cfg, port, fn) ->
                      [
                        {
                          Simulate.inj_cfg = Some cfg;
                          inj_port = port;
                          inj_transform = fn;
                        };
                      ]
                  | None -> []
                in
                let mutate_fsm fsm = Fault.apply_to_fsm fsm fault in
                let run =
                  Simulate.run_compiled ~max_cycles:budget_cycles ~injections
                    ~mutate_fsm ~budget ~memories:hw_lookup compiled
                in
                {
                  fault;
                  outcome =
                    judge ~golden_stores ~golden_asserts ~clean_hw_oob
                      hw_stores run;
                  mutant_cycles = run.Simulate.total_cycles;
                  retries = 0;
                  quarantined = false;
                  replayed = false;
                })
  in
  let exec i fault =
    match replay i with
    | Some m -> m
    | None ->
        if replay_only || not (in_shard i) then skipped fault
        else exec_interp fault
  in
  (* The compiled path packs pending mutants into bit-lane batches of at
     most {!Fastsim.max_mutants_per_batch}; lane 0 of every batch re-runs
     the clean design as an in-band sanity check. Any failure inside a
     batch — a compile gap, a wave-bound overflow, a clean-lane
     divergence — re-runs that batch's mutants one by one through the
     interpreter path, preserving its crash/retry/quarantine semantics. *)
  let run_batched fast =
    let plan_arr = Array.of_list plan in
    let n = Array.length plan_arr in
    let slots = Array.make n None in
    let pending = ref [] in
    for i = n - 1 downto 0 do
      match replay i with
      | Some m -> slots.(i) <- Some m
      | None ->
          if replay_only || not (in_shard i) then
            slots.(i) <- Some (skipped plan_arr.(i))
          else pending := (i, plan_arr.(i)) :: !pending
    done;
    let batches =
      Array.of_list (chunk Fastsim.max_mutants_per_batch !pending)
    in
    let fresh_mutant fault outcome cycles =
      {
        fault;
        outcome;
        mutant_cycles = cycles;
        retries = 0;
        quarantined = false;
        replayed = false;
      }
    in
    let exec_batch _bi batch =
      let interp_fallback msg =
        Printf.eprintf
          "faultcamp: compiled backend failed on a batch (%s); re-running \
           %d mutant(s) on the interpreter\n%!"
          msg (List.length batch);
        List.map (fun (i, fault) -> (i, exec_interp fault)) batch
      in
      try
        (* One wall-clock deadline per batch (the batch is the unit of
           execution here, as the mutant is on the interpreter path):
           the most permissive member deadline governs the whole batch —
           and a single disabled-watchdog member (profile seconds 0)
           disables it for the batch, since a shorter deadline would cut
           that member short. The cancellation token is shared with the
           whole campaign. *)
        let batch_deadline =
          let ds = List.map (fun (_, fault) -> deadline_for fault) batch in
          if List.exists (fun d -> d <= 0.) ds then 0.
          else List.fold_left Float.max 0. ds
        in
        let budget =
          Budget.start ~wall_seconds:batch_deadline ?token:cancel
            ~slice_cycles ()
        in
        match Budget.check budget with
        | Some Budget.Cancelled ->
            List.map
              (fun (i, fault) -> (i, fresh_mutant fault Cancelled 0))
              batch
        | _ ->
            let lane_stores = Array.make (List.length batch + 1) [] in
            let clean_lookup, clean_s =
              Verify.memory_env prog ~inits:case.Suite.inits
            in
            lane_stores.(0) <- clean_s;
            let specs =
              Fastsim.clean_lane clean_lookup
              :: List.mapi
                   (fun k (_, fault) ->
                     let lookup, stores =
                       Verify.memory_env prog ~inits:case.Suite.inits
                     in
                     lane_stores.(k + 1) <- stores;
                     Fault.apply_to_memories lookup fault;
                     let injections =
                       match Fault.perturbation fault with
                       | Some (cfg, port, fn) -> [ (Some cfg, port, fn) ]
                       | None -> []
                     in
                     {
                       Fastsim.memories = lookup;
                       injections;
                       mutate_fsm = (fun fsm -> Fault.apply_to_fsm fsm fault);
                     })
                   batch
            in
            let res =
              Fastsim.run ~max_cycles:budget_cycles ~slice_cycles
                ~check:(fun () -> Budget.check budget <> None)
                fast (Array.of_list specs)
            in
            let r0 = res.(0) in
            if
              (not r0.Fastsim.interrupted)
              && not
                   (r0.Fastsim.completed
                   && r0.Fastsim.total_cycles
                      = clean_cycles
                   && r0.Fastsim.checks = golden_asserts
                   && total_oob lane_stores.(0) = clean_hw_oob
                   && List.for_all2
                        (fun (_, a) (_, b) -> Memory.diff a b = [])
                        clean_stores lane_stores.(0))
            then
              failwith "clean lane diverged from the event-driven reference";
            List.mapi
              (fun k (i, fault) ->
                let r = res.(k + 1) in
                let outcome =
                  if r.Fastsim.interrupted then
                    match Budget.check budget with
                    | Some Budget.Cancelled -> Cancelled
                    | _ -> Timeout_wall
                  else
                    judge_values ~golden_stores ~golden_asserts ~clean_hw_oob
                      ~all_completed:r.Fastsim.completed
                      ~checks:r.Fastsim.checks
                      lane_stores.(k + 1)
                in
                (i, fresh_mutant fault outcome r.Fastsim.total_cycles))
              batch
      with e -> interp_fallback (Printexc.to_string e)
    in
    let settle bi = function
      | Ok results -> results
      | Error e ->
          (* Backstop, as in {!run_mutants}: [exec_batch] captures its own
             failures; should it raise anyway, every mutant of the batch
             becomes a plain [Crashed]. *)
          let msg = Printexc.to_string e in
          List.map
            (fun (i, fault) -> (i, fresh_mutant fault (Crashed msg) 0))
            batches.(bi)
    in
    let batch_done bi r =
      List.iter (fun (i, m) -> journal_mutant i m) (settle bi r)
    in
    let batch_results =
      Pool.with_pool ~jobs (fun pool ->
          Pool.mapi ~on_result:batch_done pool exec_batch
            (Array.to_list batches))
    in
    List.iteri
      (fun bi r ->
        List.iter (fun (i, m) -> slots.(i) <- Some m) (settle bi r))
      batch_results;
    Array.to_list
      (Array.map (function Some m -> m | None -> assert false) slots)
  in
  let mutants =
    match fast with
    | None -> run_mutants ~jobs ~on_result:journal_mutant ~exec plan
    | Some fast -> run_batched fast
  in
  let interrupted =
    (* Out-of-shard placeholders are someone else's work by design and
       do not make *this* run interrupted; cancelled tasks inside the
       shard (or, under [replay_only], anywhere) do. *)
    (match cancel with Some tok -> Budget.cancel_requested tok | None -> false)
    || List.exists
         (fun (i, m) -> in_shard i && m.outcome = Cancelled)
         (List.mapi (fun i m -> (i, m)) mutants)
  in
  (match journal with
  | None -> ()
  | Some w ->
      Journal.append w
        [
          ( "status",
            Journal.String (if interrupted then "interrupted" else "complete")
          );
          ("completed", Journal.Int (Atomic.get journal_entries));
        ];
      Journal.close w);
  let cancelled_n =
    List.length (List.filter (fun m -> m.outcome = Cancelled) mutants)
  in
  let detected =
    List.length
      (List.filter
         (fun m ->
           match m.outcome with
           | Killed _ | Timeout_cycles | Timeout_wall | Crashed _ -> true
           | Survived | Cancelled -> false)
         mutants)
  in
  let executed = List.length mutants - cancelled_n in
  let wall_seconds = Unix.gettimeofday () -. wall_started in
  {
    workload = case.Suite.case_name;
    seed;
    requested = faults;
    jobs;
    backend;
    backend_used;
    (* Reaching this point means the clean design verified (or its
       checkpointed baseline hash matched, which vouches for the same). *)
    clean_passed = true;
    clean_cycles;
    clean_oob = clean_hw_oob;
    cycle_budget = budget_cycles;
    deadline_seconds;
    slice_cycles;
    max_retries;
    backoff_seconds;
    mutants;
    by_class = class_breakdown mutants;
    kill_rate =
      (if executed = 0 then 0.
       else float_of_int detected /. float_of_int executed);
    interrupted;
    replayed =
      List.length (List.filter (fun (m : mutant) -> m.replayed) mutants);
    wall_seconds;
    total_mutant_cycles =
      List.fold_left (fun acc m -> acc + m.mutant_cycles) 0 mutants;
    mutants_per_second =
      (if wall_seconds > 0. then
         float_of_int (List.length mutants) /. wall_seconds
       else 0.);
  }

(* --- journal loading / compaction --------------------------------------- *)

let load_journal path =
  match Journal.load path with
  | [] -> failwith (Printf.sprintf "Faultcamp: journal %s is empty" path)
  | header_line :: entries -> (
      match header_of_obj header_line with
      | None ->
          failwith
            (Printf.sprintf
               "Faultcamp: %s does not start with a faultcamp journal header"
               path)
      | Some h -> (h, entries))

let is_task_entry obj = Journal.find_int obj "task" <> None
let is_status_entry obj = Journal.find_string obj "status" <> None

(* A long-lived journal accretes: duplicate entries for re-executed
   tasks (resume after a torn tail), one status footer per run, worker
   heartbeat lines. Compaction rewrites it to the minimal equivalent —
   header, one last-wins entry per task in index order, one footer. *)
let needs_compaction path =
  match Journal.load path with
  | [] | [ _ ] -> false
  | _ :: entries ->
      let statuses = List.length (List.filter is_status_entry entries) in
      let foreign =
        List.exists
          (fun e -> (not (is_task_entry e)) && not (is_status_entry e))
          entries
      in
      let seen = Hashtbl.create 64 in
      let dup =
        List.exists
          (fun e ->
            match Journal.find_int e "task" with
            | Some i ->
                if Hashtbl.mem seen i then true
                else begin
                  Hashtbl.add seen i ();
                  false
                end
            | None -> false)
          entries
      in
      foreign || dup || statuses > 1
      (* A status line that is not the last line (a resumed run appended
         entries after its predecessor's footer) also warrants a rewrite. *)
      || statuses = 1
         && (match List.rev entries with
            | last :: _ -> not (is_status_entry last)
            | [] -> false)

let compact path =
  let header_line, entries =
    match Journal.load path with
    | [] -> failwith (Printf.sprintf "Faultcamp.compact: %s is empty" path)
    | header_line :: entries ->
        (match header_of_obj header_line with
        | None ->
            failwith
              (Printf.sprintf
                 "Faultcamp.compact: %s does not start with a faultcamp \
                  journal header"
                 path)
        | Some _ -> ());
        (header_line, entries)
  in
  let table = replay_table entries in
  let tasks =
    List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) table [])
  in
  let objs =
    (header_line :: List.map (fun i -> Hashtbl.find table i) tasks)
    @ [
        [
          ("status", Journal.String "compacted");
          ("completed", Journal.Int (List.length tasks));
        ];
      ]
  in
  Journal.rewrite ~path objs;
  (1 + List.length entries, List.length objs)

(* --- prepare ------------------------------------------------------------- *)

(* The coordinator's share of a campaign's setup: verify the clean
   design once, and learn the plan length (for slicing) and the
   baseline checkpoint (so workers skip the clean run). *)
let prepare ?(seed = 1) ?(faults = 25) (case : Suite.case) =
  if faults < 0 then invalid_arg "Faultcamp.prepare: faults must be >= 0";
  let prog = Lang.Parser.parse_string case.Suite.source in
  let compiled = Compile.compile prog in
  let golden_lookup, golden_stores =
    Verify.memory_env prog ~inits:case.Suite.inits
  in
  let _, golden_stats = Lang.Interp.run ~memories:golden_lookup prog in
  let golden_asserts = golden_stats.Lang.Interp.asserts_failed in
  let clean_lookup, clean_stores =
    Verify.memory_env prog ~inits:case.Suite.inits
  in
  let clean_run = Simulate.run_compiled ~memories:clean_lookup compiled in
  let clean_hw_oob = total_oob clean_stores in
  let clean_passed =
    clean_run.Simulate.all_completed
    && List.for_all2
         (fun (_, g) (_, h) -> Memory.diff g h = [])
         golden_stores clean_stores
    && count_check_failures clean_run = golden_asserts
  in
  if not clean_passed then
    failwith
      (Printf.sprintf
         "Faultcamp.prepare: workload %S fails verification before any fault \
          is injected"
         case.Suite.case_name);
  let clean_cycles = clean_run.Simulate.total_cycles in
  ( List.length (Fault.plan ~seed ~n:faults compiled),
    {
      b_clean_cycles = clean_cycles;
      b_clean_oob = clean_hw_oob;
      b_hash =
        baseline_hash ~golden_stores ~golden_asserts ~clean_cycles
          ~clean_oob:clean_hw_oob;
    } )

(* --- resume ------------------------------------------------------------- *)

let resume ?(jobs = 1) ?cancel ?stop_after path =
  (* Auto-compaction: a resumed journal is about to grow another run's
     worth of entries; fold what is already there down to one entry per
     task first (also clearing worker heartbeats and stale footers). *)
  if needs_compaction path then ignore (compact path);
  let h, entries = load_journal path in
  match find_workload h.h_workload with
  | None ->
      failwith
        (Printf.sprintf "Faultcamp.resume: journal names unknown workload %S"
           h.h_workload)
  | Some case ->
      run ~seed:h.h_seed ~faults:h.h_faults
        ~max_cycles_factor:h.h_max_cycles_factor ~jobs ~backend:h.h_backend
        ~deadline_seconds:h.h_deadline_seconds ~slice_cycles:h.h_slice_cycles
        ~max_retries:h.h_max_retries ~backoff_seconds:h.h_backoff_seconds
        ~deadline_profile:h.h_deadline_profile ?baseline:h.h_baseline ?cancel
        ~journal_path:path ~resume_from:entries ?stop_after case

(* --- selectors ---------------------------------------------------------- *)

let survivors t = List.filter (fun m -> m.outcome = Survived) t.mutants

let crashes t =
  List.filter
    (fun m -> match m.outcome with Crashed _ -> true | _ -> false)
    t.mutants

let quarantined t =
  List.filter (fun (m : mutant) -> m.quarantined) t.mutants

let retried t = List.filter (fun (m : mutant) -> m.retries > 0) t.mutants

let retried_ok t =
  List.filter
    (fun (m : mutant) ->
      m.retries > 0
      && match m.outcome with Crashed _ | Cancelled -> false | _ -> true)
    t.mutants

let wall_timeouts t =
  List.filter (fun m -> m.outcome = Timeout_wall) t.mutants

let cancelled t = List.filter (fun m -> m.outcome = Cancelled) t.mutants

let outcome_to_string = function
  | Killed reason -> "killed (" ^ reason ^ ")"
  | Survived -> "SURVIVED"
  | Timeout_cycles -> "timeout (cycle budget)"
  | Timeout_wall -> "timeout (wall-clock watchdog)"
  | Cancelled -> "cancelled"
  | Crashed msg -> "crashed (" ^ msg ^ ")"
