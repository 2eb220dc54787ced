module Ast = Lang.Ast
module Memory = Operators.Memory

type memory_result = {
  mem_name : string;
  matches : bool;
  mismatches : (int * int * int) list;
  mismatch_count : int;
}

let max_reported_mismatches = 32

type t = {
  passed : bool;
  memories : memory_result list;
  golden_vars : (string * Bitvec.t) list;
  golden_stats : Lang.Interp.stats;
  hw_run : Simulate.rtg_run;
  hw_check_failures : int;
  compiled : Compiler.Compile.t;
  golden_seconds : float;
  golden_oob : int;
  hw_oob : int;
  oob_failed : bool;
}

let memory_env (prog : Ast.program) ~inits =
  let stores =
    List.map
      (fun (m : Ast.mem_decl) ->
        let store =
          Memory.create ~name:m.Ast.mem_name ~width:prog.Ast.prog_width
            m.Ast.mem_size
        in
        Memory.load store m.Ast.mem_init;
        (match List.assoc_opt m.Ast.mem_name inits with
        | Some words -> Memory.load store words
        | None -> ());
        (m.Ast.mem_name, store))
      prog.Ast.mems
  in
  let lookup name =
    match List.assoc_opt name stores with
    | Some s -> s
    | None -> failwith (Printf.sprintf "no memory %S in this program" name)
  in
  (lookup, stores)

let compare_memories golden hw =
  List.map2
    (fun (name, g) (_, h) ->
      let diffs = Memory.diff g h in
      {
        mem_name = name;
        matches = diffs = [];
        mismatches =
          List.filteri (fun i _ -> i < max_reported_mismatches) diffs;
        mismatch_count = List.length diffs;
      })
    golden hw

let total_oob stores =
  List.fold_left
    (fun acc (_, store) -> acc + Memory.out_of_range_accesses store)
    0 stores

let run ?options ?clock_period ?max_cycles ?(fail_on_oob = false) ?budget
    ~inits prog =
  let compiled = Compiler.Compile.compile ?options prog in
  let golden_lookup, golden_stores = memory_env prog ~inits in
  let hw_lookup, hw_stores = memory_env prog ~inits in
  let golden_started = Monotonic_clock.now () in
  let golden_vars, golden_stats = Lang.Interp.run ~memories:golden_lookup prog in
  let golden_seconds =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) golden_started) *. 1e-9
  in
  let golden_oob = total_oob golden_stores in
  let hw_run =
    Simulate.run_compiled ?clock_period ?max_cycles ?budget
      ~memories:hw_lookup compiled
  in
  let hw_oob = total_oob hw_stores in
  let memories = compare_memories golden_stores hw_stores in
  let hw_check_failures =
    List.fold_left
      (fun acc (r : Simulate.config_run) ->
        acc
        + List.length
            (List.filter
               (function
                 | Operators.Models.Check_failed _ -> true
                 | Operators.Models.Probe_sample _ -> false)
               r.Simulate.notifications))
      0 hw_run.Simulate.runs
  in
  (* Golden-model OOB is a genuine program bug (the software run touched
     an address outside a declared memory) and always fails. Hardware OOB
     additionally counts open-decode transients — an async read port
     presenting an intermediate address for a fraction of a cycle (fir's
     [i - j] before its guard settles) — so it only fails when asked. *)
  let oob_failed = golden_oob > 0 || (fail_on_oob && hw_oob > 0) in
  {
    passed =
      hw_run.Simulate.all_completed
      && List.for_all (fun m -> m.matches) memories
      && hw_check_failures = golden_stats.Lang.Interp.asserts_failed
      && not oob_failed;
    memories;
    golden_vars;
    golden_stats;
    hw_run;
    hw_check_failures;
    compiled;
    golden_seconds;
    golden_oob;
    hw_oob;
    oob_failed;
  }

let run_source ?options ?clock_period ?max_cycles ?fail_on_oob ?budget ~inits
    source =
  run ?options ?clock_period ?max_cycles ?fail_on_oob ?budget ~inits
    (Lang.Parser.parse_string source)
