(** Fuzzing campaign driver: generate, cross-check, shrink, archive.

    Each divergent program is minimized with {!Shrink.minimize} under a
    keep-predicate that re-runs the full oracle and demands the original
    divergence class survive, then written (when [out_dir] is given) as
    a commented [.alg] reproducer named after its class, seed and
    program index — the committed regression corpus that [replay] checks
    forever after. *)

type divergence_report = {
  index : int;  (** Program index within the campaign. *)
  d_class : string;  (** {!Oracle.primary_class} of the divergence. *)
  detail : string;
  original_size : int;
  shrunk_size : int;
  shrink_tried : int;
  source : string;  (** Minimized [.alg] text, including header. *)
  file : string option;  (** Corpus path, when [out_dir] was given. *)
}

type stats = {
  requested : int;
  agreed : int;
  rejected : int;
  divergences : divergence_report list;
  wall_seconds : float;
}

val programs_per_second : stats -> float

val slug : string -> string
(** Corpus base-name fragment for a divergence class: every character
    outside [A-Za-z0-9_] becomes ['_']. Base names double as the
    reproducer's program name, so they must lex as identifiers — class
    strings carry ['/'] and ['-'] (["fold/golden-vs-event/checks"]),
    and a reproducer named with either would fail to re-parse. *)

val run :
  ?n:int ->
  ?seed:int ->
  ?backends:Oracle.backend list ->
  ?max_shrink:int ->
  ?max_cycles:int ->
  ?shrink_class:string ->
  ?out_dir:string ->
  ?progress:(string -> unit) ->
  unit ->
  stats
(** Deterministic in [(n, seed, backends)]. [progress]
    receives journal-style one-liners (periodic counters, each
    divergence, each corpus write). [shrink_class]
    chooses which divergence class the shrinker must preserve when a
    program exhibits several (e.g. ["share/tv/share"] to minimize a
    validator alarm specifically); when absent — or the program does
    not exhibit it — the lexicographically first class is kept, as
    before. *)

val replay :
  ?backends:Oracle.backend list ->
  ?max_cycles:int ->
  dir:string ->
  unit ->
  (string * Oracle.verdict) list
(** Re-run the oracle over every [.alg] file in [dir] (sorted). A
    regression corpus of {e fixed} divergences must come back all
    {!Oracle.Agree}. *)
