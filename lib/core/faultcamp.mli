(** Mutation campaigns: measure what the verification flow can detect.

    The paper's infrastructure answers "does the compiled design compute
    the same memories as the algorithm?". A mutation campaign turns that
    around: inject one seeded fault at a time ({!Faults.Fault}) into an
    otherwise-correct design and check the comparison {e notices}. A high
    kill rate is evidence the golden-model memory diff is a meaningful
    oracle; each surviving mutant is a concrete blind spot worth reading
    about in the report.

    Campaigns are {e resilient}: every mutant runs under a {!Budget}
    (cycle bound plus wall-clock watchdog), crashed mutants are retried
    with exponential backoff and quarantined when they crash
    deterministically, completed work is checkpointed to an append-only
    JSONL journal as it finishes, and an interrupted campaign is resumed
    with {!resume} — replaying the journal and executing only the
    remainder, with a final report identical to an uninterrupted run. *)

type backend =
  | Interp
      (** The event-driven reference: one {!Testinfra.Simulate} run per
          mutant. Always available; the semantic baseline. *)
  | Compiled
      (** The bit-parallel {!Fastsim} backend: mutants packed into the
          bit-lanes of machine words, up to
          {!Fastsim.max_mutants_per_batch} per batch plus a clean lane
          that revalidates the fidelity contract in-band. Requires the
          design to be admissible (globally acyclic, or every structural
          cycle discharged by an AI007 proof); raises [Failure] when it
          is not, or when the clean design diverges from the
          event-driven reference. *)
  | Auto
      (** [Compiled] when the design is admissible and the clean run
          validates, [Interp] otherwise (with a warning on stderr). *)

val backend_label : backend -> string
(** ["interp"] / ["compiled"] / ["auto"] — the journal/CLI spelling. *)

val backend_of_label : string -> backend option

type outcome =
  | Killed of string
      (** The verifier detected the fault; the string says how ("memory
          output: 3 mismatches", assertion or OOB divergence). *)
  | Survived  (** The run completed and nothing observable differed. *)
  | Timeout_cycles
      (** The mutant exceeded the cycle budget (counts as detected: a
          hung design never reports success). *)
  | Timeout_wall
      (** The wall-clock watchdog ended the mutant before its cycle
          budget did. Also counts as detected. *)
  | Cancelled
      (** Shutdown (SIGINT / [--stop-after]) hit the mutant before it
          finished. Not a verdict: cancelled mutants are excluded from
          the kill rate and are re-executed by {!resume}. *)
  | Crashed of string
      (** The mutant's simulation raised (even after retries); the
          string is the exception. Counts as detected — a fault that
          brings the simulator down is anything but silent — and is
          confined to its own mutant instead of aborting the campaign. *)

type mutant = {
  fault : Faults.Fault.t;
  outcome : outcome;
  mutant_cycles : int;  (** 0 for {!Crashed} and {!Cancelled} mutants. *)
  retries : int;  (** Crash retries spent on this mutant. *)
  quarantined : bool;
      (** Crashed identically twice in a row: a deterministic crasher,
          recorded and never retried further. *)
  replayed : bool;
      (** This result came from the journal, not from execution (resume
          runs only). Not persisted and never rendered — a resumed
          report stays identical to an uninterrupted one. *)
}

type class_stats = {
  cls : string;  (** A member of {!Faults.Fault.all_classes}. *)
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
  requested : int;  (** Faults asked for; fewer run if sites run out. *)
  jobs : int;  (** Worker domains used for mutant execution. *)
  backend : backend;  (** The backend the caller requested. *)
  backend_used : backend;
      (** What the campaign resolved to: {!Interp} or {!Compiled}, never
          {!Auto}. Differs from [backend] exactly when [Auto] fell back
          to the interpreter. *)
  clean_passed : bool;
  clean_cycles : int;
  clean_oob : int;  (** Hardware OOB count of the clean run (baseline). *)
  cycle_budget : int;
      (** The per-mutant cycle bound actually used:
          {!Budget.cycle_budget} of [clean_cycles] (overflow-clamped). *)
  deadline_seconds : float;  (** Per-attempt wall deadline; 0 = none. *)
  slice_cycles : int;  (** Watchdog granularity. *)
  max_retries : int;
  backoff_seconds : float;
  mutants : mutant list;  (** In plan order. *)
  by_class : class_stats list;
  kill_rate : float;
      (** Detected (killed + timeouts + crashed) over executed
          (injected minus cancelled). *)
  interrupted : bool;
      (** Shutdown was requested or at least one mutant was cancelled. *)
  replayed : int;  (** Mutants taken from the journal (resume runs). *)
  wall_seconds : float;  (** Whole-campaign wall clock (compile included). *)
  total_mutant_cycles : int;  (** Sum of [mutant_cycles] over all mutants. *)
  mutants_per_second : float;  (** Throughput over [wall_seconds]. *)
}

val default_deadline_seconds : float
val default_slice_cycles : int
val default_max_retries : int
val default_backoff_seconds : float

val default_workloads : unit -> Suite.case list
(** The builtin suite plus campaign-specific cases ([gcd8], [divmod]). *)

val find_workload : string -> Suite.case option

(** {1 Clean-run baseline checkpoints} *)

type baseline = {
  b_clean_cycles : int;
  b_clean_oob : int;
  b_hash : string;
      (** FNV-style digest over the golden model's observables plus the
          clean run's cycle/OOB counts — see {!baseline_hash}. *)
}
(** A verified clean run, reduced to what a resumed or sharded worker
    needs: the clean cycle count (for the cycle budget), the clean OOB
    baseline (for judging), and a hash binding both to the golden
    model. A worker holding a matching baseline skips re-simulating the
    clean hardware design; a mismatch (the workload changed under the
    journal) is rejected with a one-line [Failure]. *)

val baseline_hash :
  golden_stores:(string * Operators.Memory.t) list ->
  golden_asserts:int ->
  clean_cycles:int ->
  clean_oob:int ->
  string

val baseline_to_string : baseline -> string
(** ["cycles:oob:hash"] — the [--baseline] wire spelling. *)

val baseline_of_string : string -> baseline option

val prepare : ?seed:int -> ?faults:int -> Suite.case -> int * baseline
(** Verify the clean design once and return the campaign's plan length
    (for shard slicing) and its {!baseline} checkpoint (for workers to
    skip the clean run). Raises [Failure] when the clean design fails
    verification. *)

val shard_slice : shards:int -> plan:int -> int -> int * int
(** [shard_slice ~shards ~plan i] is the half-open task range
    [\[lo, hi)] owned by shard [i] of [shards] over a [plan]-task
    campaign: contiguous, disjoint, covering [\[0, plan)] exactly.
    Raises [Invalid_argument] on an out-of-range index. *)

val validate_params :
  faults:int ->
  max_cycles_factor:int ->
  jobs:int ->
  deadline_seconds:float ->
  slice_cycles:int ->
  max_retries:int ->
  backoff_seconds:float ->
  deadline_profile:(string * float) list ->
  stop_after:int option ->
  unit
(** The campaign parameters' range checks, shared by {!run} and
    [Shard.validate] so a sharded campaign refuses a bad parameter
    before it spawns a worker. Raises [Invalid_argument] with a one-line
    message naming the parameter: negative [faults], [max_retries],
    [backoff_seconds] or [deadline_seconds]; [max_cycles_factor],
    [jobs], [slice_cycles] or [stop_after] below 1; a deadline profile
    naming an unknown fault class or a negative deadline. *)

val run :
  ?seed:int ->
  ?faults:int ->
  ?max_cycles_factor:int ->
  ?jobs:int ->
  ?backend:backend ->
  ?deadline_seconds:float ->
  ?slice_cycles:int ->
  ?max_retries:int ->
  ?backoff_seconds:float ->
  ?deadline_profile:(string * float) list ->
  ?shard:int * int ->
  ?replay_only:bool ->
  ?baseline:baseline ->
  ?on_entry:(int -> unit) ->
  ?on_writer:(Journal.writer -> unit) ->
  ?header_extra:Journal.obj ->
  ?cancel:Budget.token ->
  ?journal_path:string ->
  ?resume_from:Journal.obj list ->
  ?stop_after:int ->
  Suite.case ->
  t
(** Compile the workload once, run the golden model and a clean hardware
    simulation, then one mutated simulation per planned fault (fresh
    memory environment each time; cycle budget =
    {!Budget.cycle_budget}[ ~max_cycles_factor clean_cycles]). [jobs]
    (default 1) fans the mutant executions out over a {!Pool} of worker
    domains; plan generation is single-threaded and results are
    collected in plan order, so the campaign — mutant list, outcomes,
    statistics — is bit-identical for a given seed at any [jobs]. Only
    [wall_seconds] / [mutants_per_second] / [jobs] vary with the worker
    count.

    [backend] (default {!Interp}) selects the mutant evaluator. The
    verdict of every mutant is backend-independent: the compiled path is
    validated against the event-driven reference on the clean design
    before use (and once more inside every batch), and it falls back to
    the interpreter per batch on any internal failure, so a report is
    byte-identical across backends — only throughput changes. The
    journal header records the {e requested} backend and {!resume}
    re-resolves it, so [Auto] journals stay portable across hosts.

    Resilience controls:
    - [deadline_seconds] (default {!default_deadline_seconds}; [0.]
      disables, negative raises [Invalid_argument]) arms a per-attempt
      wall-clock watchdog; a hung mutant is
      classified {!Timeout_wall} within one watchdog slice of the
      deadline and the campaign moves on.
    - [slice_cycles] sets the watchdog granularity (cycles simulated
      between budget checks).
    - A crashing mutant is retried up to [max_retries] times with
      exponential backoff starting at [backoff_seconds]; two identical
      crashes in a row quarantine it immediately (see {!with_retries}).
    - [cancel] is polled between slices and before each mutant: once it
      fires, running mutants stop as {!Cancelled} and queued ones never
      simulate. Pair it with {!Budget.install_sigint} for Ctrl-C.
    - [journal_path] appends one JSONL line per finished mutant as it
      completes (crash-safe checkpointing; cancelled mutants are not
      recorded), plus a header and a final status line.
    - [resume_from] replays previously journaled entries (validated
      against the regenerated plan) and executes only the rest — used by
      {!resume}.
    - [stop_after] cancels the campaign after that many journal entries
      have been written by this process (testing hook for the
      interrupt/resume path).

    Sharding / coordination controls (used by {!Shard}):
    - [deadline_profile] overrides [deadline_seconds] per fault class
      (see {!Budget.parse_deadline_profile}; [0] disables the watchdog
      for that class). Validated up front; recorded in the journal
      header and restored by {!resume}.
    - [shard = (i, n)] executes only the tasks of {!shard_slice}
      [~shards:n ~plan i]; every other task becomes a {!Cancelled}
      placeholder that is never simulated, never journaled, and does not
      mark this run [interrupted].
    - [replay_only] executes {e nothing}: journaled entries from
      [resume_from] are replayed and every task they do not cover
      becomes a {!Cancelled} placeholder (these {e do} mark the run
      [interrupted] — the merge of incomplete shards is a partial
      report). This is the shard-merge primitive: with full coverage
      the report is byte-identical to an uninterrupted single-process
      run.
    - [baseline] is a checkpoint from a previous {!prepare}/{!run}: the
      clean hardware simulation is skipped when its hash matches the
      recomputed golden observables, and rejected with a one-line
      [Failure] otherwise.
    - [on_entry n] fires after the [n]-th journal entry written by this
      process (chaos kill hook); [on_writer] receives the journal writer
      right after the header is written (worker heartbeat hook);
      [header_extra] appends extra fields to the journal header (shard
      identity).

    Raises [Failure] when the {e clean} design already fails
    verification — a campaign over a broken design measures nothing —
    and [Invalid_argument] on out-of-range parameters. *)

val resume : ?jobs:int -> ?cancel:Budget.token -> ?stop_after:int -> string -> t
(** [resume path] reloads the journal at [path] (tolerating a torn final
    line), re-runs {!run} with the campaign parameters recorded in the
    journal header — including its deadline profile and clean-run
    {!baseline}, so the clean simulation is skipped — replays every
    completed entry and executes only the remaining mutants, appending
    their entries to the same journal. When the journal has accreted
    duplicate entries, stale footers or heartbeat lines, it is
    {!compact}ed in place first. The resulting report is identical to an
    uninterrupted run. Raises [Failure] when the file is empty, has no
    faultcamp header, names an unknown workload, disagrees with the
    regenerated fault plan, or carries a baseline that no longer matches
    the workload. *)

(** {1 Journal maintenance} *)

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
(** The campaign parameters a journal's first line records — everything
    {!resume} needs to regenerate the identical plan, plus the optional
    clean-run {!baseline} checkpoint and per-class deadline profile.
    {!Shard} validates shard journals against the coordinator's own
    header before merging. *)

val load_journal : string -> journal_header * Journal.obj list
(** Load and parse a campaign journal: its header and every entry after
    it (heartbeats and status footers included; torn lines dropped).
    Raises [Failure] when the file is empty or does not start with a
    faultcamp journal header. *)

val needs_compaction : string -> bool
(** Whether {!compact} would change the journal: duplicate task entries,
    more than one status footer, a footer that is not the last line, or
    any non-task non-status line (worker heartbeats). *)

val compact : string -> int * int
(** Rewrite the journal at [path] to its minimal equivalent — header,
    one last-wins entry per completed task in index order, one
    [compacted] status footer — atomically (see {!Journal.rewrite}).
    Returns [(lines_before, lines_after)]. Raises [Failure] on an empty
    or headerless file. *)

val run_mutants :
  ?jobs:int ->
  ?on_result:(int -> mutant -> unit) ->
  exec:(int -> Faults.Fault.t -> mutant) ->
  Faults.Fault.t list ->
  mutant list
(** The execution core of {!run}, exposed for testing the isolation
    guarantee: apply [exec] to every planned fault (with its plan index)
    over a [jobs]-wide pool, returning mutants in plan order; a raising
    [exec] yields a {!Crashed} mutant (with the exception printed into
    the outcome and [mutant_cycles = 0]) instead of propagating.
    [on_result] observes each mutant as it completes (worker domain,
    completion order, exceptions swallowed) — the journaling hook. *)

val with_retries :
  ?max_retries:int ->
  ?backoff_seconds:float ->
  ?cancel:Budget.token ->
  fault:Faults.Fault.t ->
  (attempt:int -> mutant) ->
  mutant
(** Run one mutant attempt with crash retries: a raising attempt is
    retried after [backoff_seconds * 2^attempt], at most [max_retries]
    times. Two {e identical} consecutive exception messages mean a
    deterministic crasher: it is recorded as {!Crashed} with
    [quarantined = true] without spending further retries. A successful
    attempt after [n] crashes returns with [retries = n]. Retrying stops
    early (recording the crash) once [cancel] fires. *)

val judge_values :
  golden_stores:(string * Operators.Memory.t) list ->
  golden_asserts:int ->
  clean_hw_oob:int ->
  all_completed:bool ->
  checks:int ->
  (string * Operators.Memory.t) list ->
  outcome
(** The backend-independent core of {!judge}: the verdict from the
    observables alone (completion, check-failure count, final memories),
    with no budget information — callers classify budget stops
    themselves. Shared by the interpreter and compiled paths so the two
    backends cannot drift. *)

val judge :
  golden_stores:(string * Operators.Memory.t) list ->
  golden_asserts:int ->
  clean_hw_oob:int ->
  (string * Operators.Memory.t) list ->
  Simulate.rtg_run ->
  outcome
(** The verdict for one mutated run: budget verdicts first
    ({!Timeout_wall} / {!Cancelled} / {!Timeout_cycles} from
    [budget_failure], then incomplete runs as {!Timeout_cycles}), then
    memory divergence, assertion-count divergence and OOB divergence as
    {!Killed}, else {!Survived}. *)

val survivors : t -> mutant list

val crashes : t -> mutant list
(** The mutants recorded as {!Crashed}, in plan order. *)

val quarantined : t -> mutant list
val retried : t -> mutant list
(** Mutants that spent at least one retry (any final outcome). *)

val retried_ok : t -> mutant list
(** Mutants that crashed, were retried, and then completed — the
    [Retried_ok] row of the taxonomy. *)

val wall_timeouts : t -> mutant list
val cancelled : t -> mutant list

val outcome_to_string : outcome -> string
