module Compile = Compiler.Compile
module Verify = Testinfra.Verify
module Simulate = Testinfra.Simulate
module Memory = Operators.Memory

type backend = Event | Cycle | Fast

let backend_of_string = function
  | "event" -> Some Event
  | "cyclesim" -> Some Cycle
  | "fastsim" -> Some Fast
  | _ -> None

let backend_to_string = function
  | Event -> "event"
  | Cycle -> "cyclesim"
  | Fast -> "fastsim"

let all_backends = [ Event; Cycle; Fast ]

type variant = { v_name : string; v_options : Compile.options }

let variants =
  let base = Compile.default_options in
  [
    { v_name = "plain"; v_options = base };
    { v_name = "optimize"; v_options = { base with Compile.optimize = true } };
    {
      v_name = "share";
      v_options = { base with Compile.share_operators = true };
    };
    { v_name = "fold"; v_options = { base with Compile.fold_branches = true } };
    (* everything at once: interactions between sharing, the optimizer
       and branch folding are exactly where single-knob tests are blind *)
    {
      v_name = "all";
      v_options =
        {
          Compile.share_operators = true;
          optimize = true;
          fold_branches = true;
        };
    };
  ]

type obs = {
  completed : bool;
  cycles : int;
  checks : int;
  oob : int;
  mems : (string * int list) list;
}

type outcome = Ran of obs | Refused of string

type divergence = {
  d_variant : string;
  d_pair : string;
  d_field : string;
  d_detail : string;
}

type verdict = Agree | Rejected of string | Diverged of divergence list

let class_of d =
  d.d_variant ^ "/" ^ d.d_pair
  ^ (if d.d_field = "" then "" else "/" ^ d.d_field)

let classes = function
  | Diverged ds -> List.sort_uniq compare (List.map class_of ds)
  | Agree | Rejected _ -> []

let primary_class ds = List.hd (List.sort compare (List.map class_of ds))

(* --- observation helpers ------------------------------------------- *)

let mems_of stores = List.map (fun (n, m) -> (n, Memory.to_list m)) stores

let oob_of stores =
  List.fold_left (fun a (_, m) -> a + Memory.out_of_range_accesses m) 0 stores

let checks_of (run : Simulate.rtg_run) =
  List.fold_left
    (fun acc (c : Simulate.config_run) ->
      acc
      + List.length
          (List.filter
             (function Operators.Models.Check_failed _ -> true | _ -> false)
             c.Simulate.notifications))
    0 run.Simulate.runs

let first_mem_mismatch a b =
  let cell (name, xs) (_, ys) =
    let rec go i = function
      | [], [] -> None
      | x :: xs, y :: ys ->
          if x <> y then Some (Printf.sprintf "%s[%d]: %d vs %d" name i x y)
          else go (i + 1) (xs, ys)
      | _ -> Some (Printf.sprintf "%s: size mismatch" name)
    in
    go 0 (xs, ys)
  in
  let rec scan = function
    | [], [] -> "memory sets differ"
    | ma :: ra, mb :: rb -> (
        match cell ma mb with Some s -> s | None -> scan (ra, rb))
    | _ -> "memory sets differ"
  in
  scan (a, b)

(* --- backend runs -------------------------------------------------- *)

let run_event ~max_cycles prog compiled =
  let lookup, stores = Verify.memory_env prog ~inits:[] in
  let run = Simulate.run_compiled ~max_cycles ~memories:lookup compiled in
  {
    completed = run.Simulate.all_completed;
    cycles = run.Simulate.total_cycles;
    checks = checks_of run;
    oob = oob_of stores;
    mems = mems_of stores;
  }

(* Configurations in RTG order over one persistent memory environment,
   exactly like [Simulate.run_rtg]; stops at the first configuration
   that fails to reach its done state. *)
let run_cyclesim ~max_cycles prog (compiled : Compile.t) =
  let lookup, stores = Verify.memory_env prog ~inits:[] in
  try
    let completed = ref true and cycles = ref 0 and checks = ref 0 in
    List.iter
      (fun (p : Compile.partition) ->
        if !completed then begin
          let cy =
            Cyclesim.create ~memories:lookup p.Compile.datapath p.Compile.fsm
          in
          (match Cyclesim.run ~max_cycles cy with
          | `Done -> ()
          | `Max_cycles | `Stopped -> completed := false);
          cycles := !cycles + Cyclesim.cycles cy;
          checks := !checks + Cyclesim.check_failures cy
        end)
      compiled.Compile.partitions;
    Ran
      {
        completed = !completed;
        cycles = !cycles;
        checks = !checks;
        oob = oob_of stores;
        mems = mems_of stores;
      }
  with Cyclesim.Combinational_cycle m -> Refused ("combinational cycle: " ^ m)

let run_fastsim ~max_cycles prog compiled =
  match Fastsim.admissible compiled with
  | Error e -> Refused ("not admissible: " ^ e)
  | Ok () -> (
      let lookup, stores = Verify.memory_env prog ~inits:[] in
      try
        let t = Fastsim.compile compiled in
        let r =
          (Fastsim.run ~max_cycles t [| Fastsim.clean_lane lookup |]).(0)
        in
        Ran
          {
            completed = r.Fastsim.completed;
            cycles = r.Fastsim.total_cycles;
            checks = r.Fastsim.checks;
            oob = oob_of stores;
            mems = mems_of stores;
          }
      with Fastsim.Unsupported m -> Refused ("unsupported: " ^ m))

(* --- the oracle ---------------------------------------------------- *)

type golden = {
  g_mems : (string * int list) list;
  g_asserts : int;
  g_oob : int;
}

let run_golden ~max_statements prog =
  let lookup, stores = Verify.memory_env prog ~inits:[] in
  let _env, st = Lang.Interp.run ~max_statements ~memories:lookup prog in
  {
    g_mems = mems_of stores;
    g_asserts = st.Lang.Interp.asserts_failed;
    g_oob = oob_of stores;
  }

let run ?(backends = all_backends) ?(max_cycles = 200_000)
    ?(max_statements = 400_000) (prog : Lang.Ast.program) =
  match Lang.Check.check prog with
  | _ :: _ as msgs -> Rejected ("check: " ^ String.concat "; " msgs)
  | [] -> (
      match Compile.check_partition_flow prog with
      | _ :: _ as msgs ->
          Rejected ("partition flow: " ^ String.concat "; " msgs)
      | [] -> (
          match run_golden ~max_statements prog with
          | exception Lang.Interp.Runaway m -> Rejected ("golden runaway: " ^ m)
          | g ->
              let diffs = ref [] in
              let add d_variant d_pair d_field d_detail =
                diffs := { d_variant; d_pair; d_field; d_detail } :: !diffs
              in
              let plain_event = ref None in
              List.iter
                (fun { v_name; v_options } ->
                  match Compile.compile ~options:v_options prog with
                  | exception Compile.Error msgs ->
                      add v_name "compile" ""
                        (String.concat "; " msgs)
                  | exception e ->
                      add v_name "compile" "crash" (Printexc.to_string e)
                  | compiled -> (
                      (* Translation validation rides along on every
                         compilation: a refuted certificate on an
                         otherwise-convergent program is a validator
                         false alarm — or a genuine miscompile the data
                         diff would also catch. Either way the program
                         shrinks and lands in the corpus under its
                         [variant/tv/pass] class. Inconclusive is a
                         resource verdict, not a disagreement. *)
                      List.iter
                        (fun (r : Tv.report) ->
                          match r.Tv.cert with
                          | Tv.Refuted { witness } ->
                              add v_name "tv" (Tv.pass_name r.Tv.pass)
                                (Printf.sprintf "%s: %s" r.Tv.partition
                                   witness)
                          | Tv.Proved | Tv.Inconclusive _ -> ())
                        (Compile.certify compiled);
                      match run_event ~max_cycles prog compiled with
                      | exception e ->
                          add v_name "event" "crash" (Printexc.to_string e)
                      | ev ->
                          if v_name = "plain" then plain_event := Some ev;
                          (* golden vs event-driven hardware *)
                          if not ev.completed then
                            add v_name "golden-vs-event" "completed"
                              (Printf.sprintf
                                 "hardware did not complete in %d cycles"
                                 max_cycles);
                          (* Golden OOB taints every data-dependent
                             observable on the software side: open-decode
                             reads return 0 there, but hardware truncates
                             the address to the SRAM's physical width
                             first, so loaded values — and any assert or
                             memory image downstream of them — may
                             legitimately differ. The golden-vs-hardware
                             data comparisons only bind when the golden
                             run stayed in bounds (the [verify] policy:
                             a nonzero golden OOB count is a program bug,
                             not a compiler bug). *)
                          if g.g_oob = 0 && ev.checks <> g.g_asserts then
                            add v_name "golden-vs-event" "checks"
                              (Printf.sprintf "golden %d vs hw %d" g.g_asserts
                                 ev.checks);
                          if g.g_oob = 0 && ev.mems <> g.g_mems then
                            add v_name "golden-vs-event" "memories"
                              (first_mem_mismatch g.g_mems ev.mems);
                          (* optimizer/scheduler variants must agree with
                             the plain compilation on everything but
                             cycle counts *)
                          (match !plain_event with
                          | Some pl when v_name <> "plain" ->
                              if ev.completed <> pl.completed then
                                add v_name "plain-vs-variant" "completed"
                                  (Printf.sprintf "plain %b vs %s %b"
                                     pl.completed v_name ev.completed);
                              if ev.checks <> pl.checks then
                                add v_name "plain-vs-variant" "checks"
                                  (Printf.sprintf "plain %d vs %s %d"
                                     pl.checks v_name ev.checks);
                              if ev.mems <> pl.mems then
                                add v_name "plain-vs-variant" "memories"
                                  (first_mem_mismatch pl.mems ev.mems)
                          | _ -> ());
                          (* event vs cyclesim: cycle counts and contents
                             must match exactly; the open-decode transient
                             counters legitimately differ (levelized
                             single-pass vs delta re-evaluation), so OOB
                             is excluded from this pair. *)
                          (if List.mem Cycle backends then
                             match run_cyclesim ~max_cycles prog compiled with
                             | exception e ->
                                 add v_name "cyclesim" "crash"
                                   (Printexc.to_string e)
                             | Refused _ -> ()
                             | Ran cy ->
                                 if cy.completed <> ev.completed then
                                   add v_name "event-vs-cyclesim" "completed"
                                     (Printf.sprintf "event %b vs cyclesim %b"
                                        ev.completed cy.completed);
                                 if cy.cycles <> ev.cycles then
                                   add v_name "event-vs-cyclesim" "cycles"
                                     (Printf.sprintf "event %d vs cyclesim %d"
                                        ev.cycles cy.cycles);
                                 if cy.checks <> ev.checks then
                                   add v_name "event-vs-cyclesim" "checks"
                                     (Printf.sprintf "event %d vs cyclesim %d"
                                        ev.checks cy.checks);
                                 if cy.mems <> ev.mems then
                                   add v_name "event-vs-cyclesim" "memories"
                                     (first_mem_mismatch ev.mems cy.mems));
                          (* event vs fastsim: the fidelity contract
                             includes the OOB counters *)
                          if List.mem Fast backends then
                            match run_fastsim ~max_cycles prog compiled with
                            | exception e ->
                                add v_name "fastsim" "crash"
                                  (Printexc.to_string e)
                            | Refused _ -> ()
                            | Ran fs ->
                                if fs.completed <> ev.completed then
                                  add v_name "event-vs-fastsim" "completed"
                                    (Printf.sprintf "event %b vs fastsim %b"
                                       ev.completed fs.completed);
                                if fs.cycles <> ev.cycles then
                                  add v_name "event-vs-fastsim" "cycles"
                                    (Printf.sprintf "event %d vs fastsim %d"
                                       ev.cycles fs.cycles);
                                if fs.checks <> ev.checks then
                                  add v_name "event-vs-fastsim" "checks"
                                    (Printf.sprintf "event %d vs fastsim %d"
                                       ev.checks fs.checks);
                                if fs.mems <> ev.mems then
                                  add v_name "event-vs-fastsim" "memories"
                                    (first_mem_mismatch ev.mems fs.mems);
                                if fs.oob <> ev.oob then
                                  add v_name "event-vs-fastsim" "oob"
                                    (Printf.sprintf "event %d vs fastsim %d"
                                       ev.oob fs.oob)))
                variants;
              if !diffs = [] then Agree else Diverged (List.rev !diffs)))
