module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind
module Elab = Netlist.Elab

let guard_space_limit = 1024

let prefix p ds =
  List.map
    (fun d ->
      {
        d with
        Diag.location =
          (if d.Diag.location = "" then p else p ^ " / " ^ d.Diag.location);
      })
    ds

let has_errors ds = Diag.errors ds <> []

(* ------------------------------------------------------------------ *)
(* Datapath: combinational loops, dead operators, unused controls      *)

(* DP013: strongly connected components of the operator graph restricted
   to structurally combinational operators (spec not sequential). Any
   cyclic component would oscillate (or deadlock the zero-delay
   simulator). *)
let combinational_loops e =
  let structural (o : Elab.op) = not o.Elab.spec.Opspec.sequential in
  let succs o = List.filter structural (Elab.consumers o) in
  (* A cycle that persists with every mux removed oscillates for sure.
     One broken by muxes may be dynamically acyclic — operator sharing
     routes pooled units through muxes whose selects never close the
     loop in any single FSM state — so it only warns (the levelized
     cycle simulator still refuses such designs). *)
  Elab.sccs ~succs (List.filter structural (Elab.ops e))
  |> List.map (fun scc ->
         let members = List.sort compare (List.map (fun (o : Elab.op) -> o.Elab.name) scc) in
         let loc = Printf.sprintf "operator %s" (List.hd members) in
         let path = String.concat " -> " members in
         if Elab.cyclic_without_muxes ~succs scc then
           Diag.error ~code:"DP013" ~loc
             ~hint:"break the cycle with a clocked operator (reg/counter/sram)"
             "combinational loop through %s" path
         else
           Diag.warning ~code:"DP013" ~loc
             ~hint:
               "shared-operator designs route pooled units through muxes; \
                the levelized cycle simulator refuses such designs"
             "structural combinational loop through %s (broken by mux \
              routing, may be dynamically acyclic)"
             path)

(* DP014: operators with no path to an observable effect — a sequential
   operator (register, counter, memory), a status tap, or a test aid. *)
let dead_operators e =
  let dp = Elab.datapath e in
  let status_insts =
    List.map (fun (s : Dp.status) -> s.Dp.st_source.Dp.inst) dp.Dp.statuses
  in
  let is_seed (o : Elab.op) =
    Opkind.is_test_aid o.Elab.kind
    || o.Elab.spec.Opspec.sequential
    || List.mem o.Elab.name status_insts
  in
  (* Liveness flows backwards from the seeds, through input drivers. *)
  let live = Hashtbl.create 16 in
  let rec mark (o : Elab.op) =
    if not (Hashtbl.mem live o.Elab.id) then begin
      Hashtbl.replace live o.Elab.id ();
      List.iter
        (function _, Elab.Op_out (src, _) -> mark src | _, Elab.Ctl _ -> ())
        o.Elab.inputs
    end
  in
  List.iter (fun o -> if is_seed o then mark o) (Elab.ops e);
  List.filter_map
    (fun (o : Elab.op) ->
      if Hashtbl.mem live o.Elab.id then None
      else
        Some
          (Diag.warning ~code:"DP014"
             ~loc:(Printf.sprintf "operator %s" o.Elab.name)
             ~hint:"remove the operator or connect it to an observable"
             "dead operator: no path to a register, memory, status or probe"))
    (Elab.ops e)

(* DP015: declared control signals that drive no net. *)
let unused_controls dp =
  let used name =
    List.exists
      (fun (n : Dp.net) -> n.Dp.source = Dp.From_control name)
      dp.Dp.nets
  in
  List.filter_map
    (fun (c : Dp.control) ->
      if used c.Dp.ctl_name then None
      else
        Some
          (Diag.warning ~code:"DP015"
             ~loc:(Printf.sprintf "control %s" c.Dp.ctl_name)
             "control signal declared but drives no net"))
    dp.Dp.controls

let run_datapath dp =
  let structural = Dp.check_diags dp in
  if structural <> [] then structural
  else
    let e = Elab.of_datapath dp in
    combinational_loops e @ dead_operators e @ unused_controls dp

(* ------------------------------------------------------------------ *)
(* FSM: state reachability, guard satisfiability and shadowing         *)

let reachable_states fsm =
  let visited = Hashtbl.create 16 in
  let rec dfs name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      match Fsm.find_state fsm name with
      | None -> ()
      | Some st ->
          List.iter (fun (tr : Fsm.transition) -> dfs tr.Fsm.target) st.Fsm.transitions
    end
  in
  dfs fsm.Fsm.initial;
  visited

let unreachable_states fsm =
  let visited = reachable_states fsm in
  List.filter_map
    (fun (st : Fsm.state) ->
      if Hashtbl.mem visited st.Fsm.sname then None
      else
        Some
          (Diag.warning ~code:"FSM012"
             ~loc:(Printf.sprintf "state %s" st.Fsm.sname)
             "state unreachable from initial state %S" fsm.Fsm.initial))
    fsm.Fsm.states

(* Enumerate every assignment of the status signals a state's guards
   reference. The status space is tiny in practice (mostly 1-bit flags);
   states whose space exceeds the limit report the truncation (BND002)
   instead of silently under-reporting. *)
let assignments ~limit fsm signals =
  let width name =
    List.find_opt (fun (i : Fsm.io) -> i.Fsm.io_name = name) fsm.Fsm.inputs
    |> Option.map (fun (i : Fsm.io) -> i.Fsm.io_width)
  in
  let rec domains = function
    | [] -> Some []
    | s :: rest -> (
        match (width s, domains rest) with
        | Some w, Some ds when w < 30 -> Some ((s, 1 lsl w) :: ds)
        | _ -> None)
  in
  match domains signals with
  | None -> `Skipped `Wide
  | Some doms ->
      let space = List.fold_left (fun acc (_, n) -> acc * n) 1 doms in
      if space > limit then `Skipped (`Space space)
      else
        let rec enum = function
          | [] -> [ [] ]
          | (s, n) :: rest ->
              let tails = enum rest in
              List.concat_map
                (fun v -> List.map (fun tl -> (s, v) :: tl) tails)
                (List.init n Fun.id)
        in
        `Assignments (enum doms)

let guard_analyses ~limit fsm =
  List.concat_map
    (fun (st : Fsm.state) ->
      let signals =
        List.sort_uniq compare
          (List.concat_map
             (fun (tr : Fsm.transition) -> Guard.signals tr.Fsm.guard)
             st.Fsm.transitions)
      in
      let loc = Printf.sprintf "state %s" st.Fsm.sname in
      match assignments ~limit fsm signals with
      | `Skipped reason -> (
          if signals = [] then []
          else
            match reason with
            | `Wide ->
                [
                  Diag.warning ~code:"BND002" ~loc
                    ~hint:"signals of 30+ bits cannot be enumerated"
                    "guard analysis skipped: a referenced status signal is \
                     too wide to enumerate";
                ]
            | `Space space ->
                [
                  Diag.warning ~code:"BND002" ~loc
                    ~hint:
                      "raise the limit (fpgatest lint --guard-limit N) to \
                       analyze this state"
                    "guard analysis skipped: status space of %d assignments \
                     exceeds the limit of %d"
                    space limit;
                ])
      | `Assignments asgs ->
          let holds g asg = Guard.eval g (fun s -> List.assoc s asg) in
          let rec walk earlier = function
            | [] -> []
            | (tr : Fsm.transition) :: rest ->
                let sat = List.filter (holds tr.Fsm.guard) asgs in
                let diag =
                  if sat = [] then
                    [
                      Diag.warning ~code:"FSM013" ~loc
                        "guard %S can never hold"
                        (Guard.to_string tr.Fsm.guard);
                    ]
                  else if
                    earlier <> []
                    && List.for_all
                         (fun asg -> List.exists (fun g -> holds g asg) earlier)
                         sat
                  then
                    [
                      Diag.warning ~code:"FSM014" ~loc
                        ~hint:"transitions are tried in order; earlier guards cover this one"
                        "transition to %s is shadowed by earlier transitions"
                        tr.Fsm.target;
                    ]
                  else []
                in
                diag @ walk (tr.Fsm.guard :: earlier) rest
          in
          walk [] st.Fsm.transitions)
    fsm.Fsm.states

let run_fsm ?(guard_limit = guard_space_limit) fsm =
  let structural = Fsm.check_diags fsm in
  if structural <> [] then structural
  else unreachable_states fsm @ guard_analyses ~limit:guard_limit fsm

let run_rtg = Rtg.check_diags

(* ------------------------------------------------------------------ *)
(* Cross-document linking                                              *)

let link_configuration ?cfg_name dp fsm =
  let loc =
    match cfg_name with
    | Some c -> Printf.sprintf "configuration %s" c
    | None -> Printf.sprintf "%s/%s" dp.Dp.dp_name fsm.Fsm.fsm_name
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let find_control name =
    List.find_opt (fun (c : Dp.control) -> c.Dp.ctl_name = name) dp.Dp.controls
  in
  let find_status name =
    List.find_opt (fun (s : Dp.status) -> s.Dp.st_name = name) dp.Dp.statuses
  in
  let control_used name =
    List.exists (fun (n : Dp.net) -> n.Dp.source = Dp.From_control name) dp.Dp.nets
  in
  let asserted name =
    List.exists
      (fun (st : Fsm.state) ->
        match List.assoc_opt name st.Fsm.settings with
        | Some v -> v <> 0
        | None -> false)
      fsm.Fsm.states
  in
  (* FSM outputs <-> datapath controls. *)
  List.iter
    (fun (o : Fsm.io) ->
      match find_control o.Fsm.io_name with
      | None ->
          add
            (Diag.error ~code:"XL002" ~loc
               ~hint:"every FSM output must be declared as a datapath control"
               "fsm %s output %s has no matching control in datapath %s"
               fsm.Fsm.fsm_name o.Fsm.io_name dp.Dp.dp_name)
      | Some c ->
          if c.Dp.ctl_width <> o.Fsm.io_width then
            add
              (Diag.error ~code:"XL004" ~loc
                 "control %s: fsm output width %d <> datapath width %d"
                 o.Fsm.io_name o.Fsm.io_width c.Dp.ctl_width)
          else if asserted o.Fsm.io_name && not (control_used o.Fsm.io_name)
          then
            add
              (Diag.warning ~code:"XL008" ~loc
                 "control %s asserted by fsm %s but unconnected in datapath %s"
                 o.Fsm.io_name fsm.Fsm.fsm_name dp.Dp.dp_name))
    fsm.Fsm.outputs;
  List.iter
    (fun (c : Dp.control) ->
      if
        not
          (List.exists
             (fun (o : Fsm.io) -> o.Fsm.io_name = c.Dp.ctl_name)
             fsm.Fsm.outputs)
      then
        add
          (Diag.error ~code:"XL003" ~loc
             ~hint:"an undriven control would float in the composed system"
             "datapath control %s is not driven by any output of fsm %s"
             c.Dp.ctl_name fsm.Fsm.fsm_name))
    dp.Dp.controls;
  (* FSM inputs <-> datapath statuses. *)
  List.iter
    (fun (i : Fsm.io) ->
      match find_status i.Fsm.io_name with
      | None ->
          add
            (Diag.error ~code:"XL005" ~loc
               "fsm %s input %s has no matching status in datapath %s"
               fsm.Fsm.fsm_name i.Fsm.io_name dp.Dp.dp_name)
      | Some st -> (
          match Dp.status_width dp st with
          | w ->
              if w <> i.Fsm.io_width then
                add
                  (Diag.error ~code:"XL007" ~loc
                     "status %s: datapath width %d <> fsm input width %d"
                     i.Fsm.io_name w i.Fsm.io_width)
          | exception Failure _ ->
              (* The datapath-side diagnostics already cover the broken
                 status endpoint. *)
              ()))
    fsm.Fsm.inputs;
  List.iter
    (fun (st : Dp.status) ->
      if
        not
          (List.exists
             (fun (i : Fsm.io) -> i.Fsm.io_name = st.Dp.st_name)
             fsm.Fsm.inputs)
      then
        add
          (Diag.warning ~code:"XL006" ~loc
             "datapath status %s is not read by fsm %s" st.Dp.st_name
             fsm.Fsm.fsm_name))
    dp.Dp.statuses;
  (* XL009: a configuration that can never signal completion. *)
  if Fsm.done_states fsm = [] then
    add
      (Diag.error ~code:"XL009" ~loc
         ~hint:"flag a state done=\"true\" so the RTG can sequence past it"
         "fsm %s has no done state; the configuration can never complete"
         fsm.Fsm.fsm_name);
  List.rev !diags

let run_configuration ?guard_limit dp fsm =
  prefix (Printf.sprintf "datapath %s" dp.Dp.dp_name) (run_datapath dp)
  @ prefix (Printf.sprintf "fsm %s" fsm.Fsm.fsm_name) (run_fsm ?guard_limit fsm)
  @ link_configuration dp fsm

(* ------------------------------------------------------------------ *)
(* Bundles                                                             *)

let uniq_assoc l =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    l

let run_bundle ?guard_limit ~rtg ~datapaths ~fsms () =
  let rtg_diags = prefix (Printf.sprintf "rtg %s" rtg.Rtg.rtg_name) (run_rtg rtg) in
  let dp_diags =
    List.concat_map
      (fun (name, dp) ->
        prefix (Printf.sprintf "datapath %s" name) (run_datapath dp))
      (uniq_assoc datapaths)
  in
  let fsm_diags =
    List.concat_map
      (fun (name, fsm) ->
        prefix (Printf.sprintf "fsm %s" name) (run_fsm ?guard_limit fsm))
      (uniq_assoc fsms)
  in
  let cfg_diags =
    List.concat_map
      (fun (c : Rtg.configuration) ->
        let missing what ref_name =
          Diag.error ~code:"XL001"
            ~loc:(Printf.sprintf "configuration %s" c.Rtg.cfg_name)
            "references %s document %S missing from the bundle" what ref_name
        in
        match
          ( List.assoc_opt c.Rtg.datapath_ref datapaths,
            List.assoc_opt c.Rtg.fsm_ref fsms )
        with
        | Some dp, Some fsm ->
            link_configuration ~cfg_name:c.Rtg.cfg_name dp fsm
        | dp, fsm ->
            (if dp = None then [ missing "datapath" c.Rtg.datapath_ref ] else [])
            @ if fsm = None then [ missing "fsm" c.Rtg.fsm_ref ] else [])
      rtg.Rtg.configurations
  in
  rtg_diags @ dp_diags @ fsm_diags @ cfg_diags

(* ------------------------------------------------------------------ *)
(* Deep analysis: the abstract-interpretation passes                   *)

type analysis = { cfg : string; seconds : float; fixpoint_iterations : int }
type deep = { deep_diags : Diag.t list; analyses : analysis list }

(* The location run_datapath gave a mux-broken DP013 warning for this
   component. *)
let dp013_matches dp_name members (d : Diag.t) =
  d.Diag.code = "DP013"
  && d.Diag.severity = Diag.Warning
  && members <> []
  && d.Diag.location
     = Printf.sprintf "datapath %s / operator %s" dp_name (List.hd members)

let run_deep ?guard_limit ?cache ?(mem_inits = []) ~rtg ~datapaths ~fsms () =
  let base = run_bundle ?guard_limit ~rtg ~datapaths ~fsms () in
  (* The engine needs structurally clean, linkable documents; with
     errors present the shallow result stands alone. *)
  if has_errors base then { deep_diags = base; analyses = [] }
  else
    let datapaths = uniq_assoc datapaths and fsms = uniq_assoc fsms in
    let results =
      List.filter_map
        (fun (c : Rtg.configuration) ->
          match
            ( List.assoc_opt c.Rtg.datapath_ref datapaths,
              List.assoc_opt c.Rtg.fsm_ref fsms )
          with
          | Some dp, Some fsm -> (
              match Absint.analyze ?cache ~memories:mem_inits dp fsm with
              | r -> Some (c, `Analyzed r)
              | exception Failure msg -> Some (c, `Failed msg))
          | _ -> None (* XL001 is an error; unreachable here *))
        rtg.Rtg.configurations
    in
    let analyses =
      List.filter_map
        (fun ((c : Rtg.configuration), outcome) ->
          match outcome with
          | `Analyzed r ->
              Some
                {
                  cfg = c.Rtg.cfg_name;
                  seconds = Absint.wall_seconds r;
                  fixpoint_iterations = Absint.iterations r;
                }
          | `Failed _ -> None)
        results
    in
    let ai_diags =
      List.concat_map
        (fun ((c : Rtg.configuration), outcome) ->
          let loc = Printf.sprintf "configuration %s" c.Rtg.cfg_name in
          match outcome with
          | `Analyzed r -> prefix loc (Absint.diagnostics r)
          | `Failed msg ->
              [
                Diag.error ~code:"AI000" ~loc
                  "abstract interpretation failed: %s" msg;
              ])
        results
    in
    (* Resolve the DP013 mux-broken warnings per structural component:
       the proof must hold in every configuration sharing the datapath;
       a single confirmed closing upgrades the warning to an error. *)
    let by_dp name =
      List.filter
        (fun ((c : Rtg.configuration), _) -> c.Rtg.datapath_ref = name)
        results
    in
    let resolutions =
      List.concat_map
        (fun (dp_name, _) ->
          let cfgs = by_dp dp_name in
          let components =
            match cfgs with
            | (_, `Analyzed r) :: _ ->
                List.map
                  (fun (f : Absint.cycle_finding) -> f.Absint.members)
                  (Absint.cycle_findings r)
            | _ -> []
          in
          List.map
            (fun members ->
              let verdicts =
                List.map
                  (fun ((c : Rtg.configuration), outcome) ->
                    match outcome with
                    | `Failed _ -> (c, None)
                    | `Analyzed r ->
                        ( c,
                          List.find_opt
                            (fun (f : Absint.cycle_finding) ->
                              f.Absint.members = members)
                            (Absint.cycle_findings r) ))
                  cfgs
              in
              let dynamic =
                List.find_map
                  (fun ((c : Rtg.configuration), f) ->
                    match f with
                    | Some
                        {
                          Absint.cycle_verdict =
                            Absint.Dynamic_cycle { state; through };
                          _;
                        } ->
                        Some (c.Rtg.cfg_name, state, through)
                    | _ -> None)
                  verdicts
              in
              let all_proved =
                verdicts <> []
                && List.for_all
                     (fun (_, f) ->
                       match f with
                       | Some
                           { Absint.cycle_verdict = Absint.Proved_acyclic; _ }
                         ->
                           true
                       | _ -> false)
                     verdicts
              in
              let loc =
                Printf.sprintf "datapath %s / operator %s" dp_name
                  (List.hd members)
              in
              let path = String.concat " -> " members in
              match dynamic with
              | Some (cfg_name, state, through) ->
                  ( dp_name,
                    members,
                    `Upgrade
                      (Diag.error ~code:"AI006" ~loc
                         ~hint:
                           "the state's mux selects route the loop closed; \
                            the design will oscillate there"
                         "combinational cycle through %s closes dynamically \
                          in state %s of configuration %s"
                         (String.concat " -> " through)
                         state cfg_name) )
              | None ->
                  if all_proved then
                    ( dp_name,
                      members,
                      `Discharge
                        (Diag.note ~code:"AI007" ~loc
                           "structural loop through %s proved dynamically \
                            acyclic in every reachable state"
                           path) )
                  else (dp_name, members, `Keep))
            components)
        datapaths
    in
    let replaced =
      List.concat_map
        (fun d ->
          match
            List.find_opt
              (fun (dp_name, members, _) -> dp013_matches dp_name members d)
              resolutions
          with
          | Some (_, _, `Upgrade e) -> [ e ]
          | Some (_, _, `Discharge n) -> [ n ]
          | Some (_, _, `Keep) | None -> [ d ])
        base
    in
    { deep_diags = replaced @ ai_diags; analyses }

(* ------------------------------------------------------------------ *)
(* Files and directories                                               *)

type 'a loaded = Doc of 'a | Bad of Diag.t

let parse_doc path =
  match Xmlkit.Xml_parser.parse_file path with
  | doc -> Doc doc
  | exception (Xmlkit.Xml_parser.Parse_error _ as e) ->
      Bad
        (Diag.error ~code:"XML001" ~loc:path "%s"
           (Option.value ~default:"XML parse error"
              (Xmlkit.Xml_parser.error_to_string e)))
  | exception Sys_error msg ->
      Bad (Diag.error ~code:"XML003" ~loc:path "%s" msg)

let convert_doc path of_xml doc =
  match of_xml doc with
  | v -> Doc v
  | exception Xmlkit.Xml_query.Schema_error msg ->
      Bad (Diag.error ~code:"XML002" ~loc:path "%s" msg)
  | exception Dp.Unknown_kind d ->
      Bad { d with Diag.location = path ^ " / " ^ d.Diag.location }
  | exception Failure msg ->
      (* e.g. a malformed "inst.port" endpoint — reported with the file
         as the lint location instead of escaping as an exception. *)
      Bad (Diag.error ~code:"XML003" ~loc:path "%s" msg)

let run_file ?guard_limit path =
  match parse_doc path with
  | Bad d -> [ d ]
  | Doc doc -> (
      match doc with
      | Xmlkit.Xml.Element { Xmlkit.Xml.tag = "datapath"; _ } -> (
          match convert_doc path Dp.of_xml doc with
          | Bad d -> [ d ]
          | Doc dp ->
              prefix (Printf.sprintf "datapath %s" dp.Dp.dp_name)
                (run_datapath dp))
      | Xmlkit.Xml.Element { Xmlkit.Xml.tag = "fsm"; _ } -> (
          match convert_doc path Fsm.of_xml doc with
          | Bad d -> [ d ]
          | Doc fsm ->
              prefix
                (Printf.sprintf "fsm %s" fsm.Fsm.fsm_name)
                (run_fsm ?guard_limit fsm))
      | Xmlkit.Xml.Element { Xmlkit.Xml.tag = "rtg"; _ } -> (
          match convert_doc path Rtg.of_xml doc with
          | Bad d -> [ d ]
          | Doc rtg ->
              prefix (Printf.sprintf "rtg %s" rtg.Rtg.rtg_name) (run_rtg rtg))
      | Xmlkit.Xml.Element { Xmlkit.Xml.tag; _ } ->
          [
            Diag.error ~code:"XML002" ~loc:path
              "unknown dialect <%s> (expected datapath, fsm or rtg)" tag;
          ]
      | Xmlkit.Xml.Text _ ->
          [ Diag.error ~code:"XML002" ~loc:path "not an XML element" ])

(* Load the documents of a bundle directory, capturing every load
   failure as a diagnostic. [Error diags] when no RTG loads; otherwise
   the documents plus the load diagnostics of broken side files. *)
let load_dir dir =
  let entries = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let rtg_files =
    List.filter (fun f -> Filename.check_suffix f "_rtg.xml") entries
  in
  match rtg_files with
  | [] ->
      Error
        [
          Diag.error ~code:"BND001" ~loc:dir
            "no *_rtg.xml found — not a bundle directory";
        ]
  | _ :: _ :: _ ->
      Error
        [
          Diag.error ~code:"BND001" ~loc:dir "several *_rtg.xml files: %s"
            (String.concat ", " rtg_files);
        ]
  | [ rtg_file ] -> (
      let rtg_path = Filename.concat dir rtg_file in
      match parse_doc rtg_path with
      | Bad d -> Error [ d ]
      | Doc doc -> (
          match convert_doc rtg_path Rtg.of_xml doc with
          | Bad d -> Error [ d ]
          | Doc rtg ->
              let load_side of_xml refs =
                List.fold_left
                  (fun (docs, diags) ref_name ->
                    if List.mem_assoc ref_name docs then (docs, diags)
                    else
                      let path = Filename.concat dir (ref_name ^ ".xml") in
                      if not (Sys.file_exists path) then
                        (* run_bundle reports the missing reference as
                           XL001 against its configuration. *)
                        (docs, diags)
                      else
                        match parse_doc path with
                        | Bad d -> (docs, d :: diags)
                        | Doc doc -> (
                            match convert_doc path of_xml doc with
                            | Bad d -> (docs, d :: diags)
                            | Doc v -> ((ref_name, v) :: docs, diags)))
                  ([], []) refs
              in
              let datapaths, dp_load =
                load_side Dp.of_xml
                  (List.map
                     (fun (c : Rtg.configuration) -> c.Rtg.datapath_ref)
                     rtg.Rtg.configurations)
              in
              let fsms, fsm_load =
                load_side Fsm.of_xml
                  (List.map
                     (fun (c : Rtg.configuration) -> c.Rtg.fsm_ref)
                     rtg.Rtg.configurations)
              in
              Ok
                ( rtg,
                  List.rev datapaths,
                  List.rev fsms,
                  List.rev dp_load @ List.rev fsm_load )))

let run_dir ?guard_limit dir =
  match load_dir dir with
  | Error diags -> diags
  | Ok (rtg, datapaths, fsms, load_diags) ->
      load_diags @ run_bundle ?guard_limit ~rtg ~datapaths ~fsms ()

let run_deep_dir ?guard_limit dir =
  match load_dir dir with
  | Error diags -> { deep_diags = diags; analyses = [] }
  | Ok (rtg, datapaths, fsms, load_diags) ->
      if load_diags <> [] then
        { deep_diags = load_diags @ run_bundle ?guard_limit ~rtg ~datapaths ~fsms ();
          analyses = [] }
      else run_deep ?guard_limit ~rtg ~datapaths ~fsms ()

(* ------------------------------------------------------------------ *)
(* Mechanical fixes                                                    *)

type fix = {
  fixed_paths : string list;
  removed_controls : (string * string list) list;
      (** Document name -> removed control/output names. *)
  before : Diag.t list;
  after : Diag.t list;
}

(* The fixable class is the undriven control: declared in a datapath
   but driving no net (DP015; XL008 when the FSM also asserts it). The
   rewrite removes the control declaration, the matching FSM output and
   its per-state settings — but only when every document agrees: an FSM
   output is only removable when the control is unused in every
   datapath the FSM pairs with, and a datapath control only when every
   paired FSM can drop the output too (otherwise the removal would
   manufacture XL002/XL003 link errors). *)
let fix_dir ?guard_limit ?(in_place = false) dir =
  match load_dir dir with
  | Error diags -> Error diags
  | Ok (rtg, datapaths, fsms, load_diags) ->
      let before =
        load_diags @ run_bundle ?guard_limit ~rtg ~datapaths ~fsms ()
      in
      let datapaths = uniq_assoc datapaths and fsms = uniq_assoc fsms in
      let unused dp_name ctl =
        match List.assoc_opt dp_name datapaths with
        | None -> false
        | Some dp ->
            List.exists
              (fun (c : Dp.control) -> c.Dp.ctl_name = ctl)
              dp.Dp.controls
            && not
                 (List.exists
                    (fun (n : Dp.net) -> n.Dp.source = Dp.From_control ctl)
                    dp.Dp.nets)
      in
      let declared dp_name ctl =
        match List.assoc_opt dp_name datapaths with
        | None -> false
        | Some dp ->
            List.exists
              (fun (c : Dp.control) -> c.Dp.ctl_name = ctl)
              dp.Dp.controls
      in
      let paired_dps fsm_name =
        List.filter_map
          (fun (c : Rtg.configuration) ->
            if c.Rtg.fsm_ref = fsm_name then Some c.Rtg.datapath_ref else None)
          rtg.Rtg.configurations
        |> List.sort_uniq compare
      in
      let paired_fsms dp_name =
        List.filter_map
          (fun (c : Rtg.configuration) ->
            if c.Rtg.datapath_ref = dp_name then Some c.Rtg.fsm_ref else None)
          rtg.Rtg.configurations
        |> List.sort_uniq compare
      in
      let fsm_removals =
        List.map
          (fun (fname, (fsm : Fsm.t)) ->
            let dps = paired_dps fname in
            let removable (o : Fsm.io) =
              dps <> []
              && List.exists (fun d -> declared d o.Fsm.io_name) dps
              && List.for_all
                   (fun d ->
                     (not (declared d o.Fsm.io_name))
                     || unused d o.Fsm.io_name)
                   dps
            in
            ( fname,
              List.filter_map
                (fun o -> if removable o then Some o.Fsm.io_name else None)
                fsm.Fsm.outputs ))
          fsms
      in
      let fsm_drops fname =
        Option.value ~default:[] (List.assoc_opt fname fsm_removals)
      in
      let dp_removals =
        List.map
          (fun (dname, (dp : Dp.t)) ->
            ( dname,
              List.filter_map
                (fun (c : Dp.control) ->
                  let ctl = c.Dp.ctl_name in
                  if
                    unused dname ctl
                    && List.for_all
                         (fun f ->
                           match List.assoc_opt f fsms with
                           | None -> true
                           | Some fsm ->
                               (not
                                  (List.exists
                                     (fun (o : Fsm.io) -> o.Fsm.io_name = ctl)
                                     fsm.Fsm.outputs))
                               || List.mem ctl (fsm_drops f))
                         (paired_fsms dname)
                  then Some ctl
                  else None)
                dp.Dp.controls ))
          datapaths
      in
      let fixed_dps =
        List.filter_map
          (fun (dname, (dp : Dp.t)) ->
            match List.assoc dname dp_removals with
            | [] -> None
            | rem ->
                Some
                  ( dname,
                    {
                      dp with
                      Dp.controls =
                        List.filter
                          (fun (c : Dp.control) ->
                            not (List.mem c.Dp.ctl_name rem))
                          dp.Dp.controls;
                    } ))
          datapaths
      in
      let fixed_fsms =
        List.filter_map
          (fun (fname, (fsm : Fsm.t)) ->
            match fsm_drops fname with
            | [] -> None
            | rem ->
                Some
                  ( fname,
                    {
                      fsm with
                      Fsm.outputs =
                        List.filter
                          (fun (o : Fsm.io) ->
                            not (List.mem o.Fsm.io_name rem))
                          fsm.Fsm.outputs;
                      Fsm.states =
                        List.map
                          (fun (st : Fsm.state) ->
                            {
                              st with
                              Fsm.settings =
                                List.filter
                                  (fun (k, _) -> not (List.mem k rem))
                                  st.Fsm.settings;
                            })
                          fsm.Fsm.states;
                    } ))
          fsms
      in
      let out_path name =
        Filename.concat dir (name ^ if in_place then ".xml" else ".fixed.xml")
      in
      List.iter (fun (name, dp) -> Dp.save (out_path name) dp) fixed_dps;
      List.iter (fun (name, fsm) -> Fsm.save (out_path name) fsm) fixed_fsms;
      let merged originals fixed =
        List.map
          (fun (n, d) ->
            match List.assoc_opt n fixed with Some d' -> (n, d') | None -> (n, d))
          originals
      in
      let after =
        load_diags
        @ run_bundle ?guard_limit ~rtg
            ~datapaths:(merged datapaths fixed_dps)
            ~fsms:(merged fsms fixed_fsms) ()
      in
      let removed_controls =
        List.filter
          (fun (_, rem) -> rem <> [])
          (dp_removals
          @ List.map (fun (f, _) -> (f, fsm_drops f)) fsms)
      in
      Ok
        {
          fixed_paths =
            List.map (fun (n, _) -> out_path n) fixed_dps
            @ List.map (fun (n, _) -> out_path n) fixed_fsms;
          removed_controls;
          before;
          after;
        }
