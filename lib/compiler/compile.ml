module Ast = Lang.Ast

type options = { share_operators : bool; optimize : bool; fold_branches : bool }

let default_options =
  { share_operators = false; optimize = false; fold_branches = false }

type partition = {
  index : int;
  datapath : Netlist.Datapath.t;
  fsm : Fsmkit.Fsm.t;
  cfg : Cfg.t;
  state_count : int;
  fu_count : int;
}

type t = {
  program : Ast.program;
  source : Ast.program;
  options : options;
  partitions : partition list;
  rtg : Rtg.t;
  mutable tv : Tv.report list;
  absint : Absint.cache;
}

exception Error of string list

(* --- definite-assignment before use, per partition ------------------ *)

(* [may_use_before_def stmts] returns the variables that some execution
   path may read before assigning, using a conservative (paths-may-skip-
   loops-and-branches) analysis. *)
let may_use_before_def stmts =
  let suspects = ref [] in
  let suspect v = if not (List.mem v !suspects) then suspects := v :: !suspects in
  let rec expr_uses defined = function
    | Ast.Int _ -> ()
    | Ast.Var v -> if not (List.mem v defined) then suspect v
    | Ast.Mem_read (_, a) -> expr_uses defined a
    | Ast.Binop (_, a, b) ->
        expr_uses defined a;
        expr_uses defined b
    | Ast.Unop (_, a) -> expr_uses defined a
  in
  let rec cond_uses defined = function
    | Ast.Cmp (_, a, b) ->
        expr_uses defined a;
        expr_uses defined b
    | Ast.Cand (a, b) | Ast.Cor (a, b) ->
        cond_uses defined a;
        cond_uses defined b
    | Ast.Cnot c -> cond_uses defined c
  in
  let rec walk defined = function
    | [] -> defined
    | Ast.Assign (v, e) :: rest ->
        expr_uses defined e;
        walk (if List.mem v defined then defined else v :: defined) rest
    | Ast.Mem_write (_, a, value) :: rest ->
        expr_uses defined a;
        expr_uses defined value;
        walk defined rest
    | Ast.If (c, t, e) :: rest ->
        cond_uses defined c;
        let dt = walk defined t in
        let de = walk defined e in
        let both = List.filter (fun v -> List.mem v de) dt in
        walk both rest
    | Ast.While (c, body) :: rest ->
        cond_uses defined c;
        (* The body may not run; definitions inside don't count after. *)
        let (_ : string list) = walk defined body in
        walk defined rest
    | Ast.Assert c :: rest ->
        cond_uses defined c;
        walk defined rest
    | Ast.Partition :: rest -> walk defined rest
  in
  let (_ : string list) = walk [] stmts in
  List.sort compare !suspects

let check_partition_flow prog =
  let parts = Ast.partitions prog in
  let errs = ref [] in
  let rec loop written_before k = function
    | [] -> ()
    | part :: rest ->
        if k > 0 then
          List.iter
            (fun v ->
              if List.mem v written_before then
                errs :=
                  Printf.sprintf
                    "partition %d may read variable %S before writing it, \
                     but an earlier partition writes it; scalar values do \
                     not survive reconfiguration — pass data through a \
                     memory"
                    k v
                  :: !errs)
            (may_use_before_def part);
        loop
          (List.sort_uniq compare (written_before @ Ast.vars_written part))
          (k + 1) rest
  in
  loop [] 0 parts;
  List.rev !errs

(* --- lint gate ------------------------------------------------------- *)

(* Every compile ends with a whole-design lint of the generated bundle: a
   code-generation bug that produces a structurally broken or mis-linked
   design is caught here, before any simulation runs. Error-severity
   diagnostics abort the compile. *)
let bundle_docs t =
  let datapaths =
    List.map
      (fun p -> (p.datapath.Netlist.Datapath.dp_name, p.datapath))
      t.partitions
  in
  let fsms =
    List.map (fun p -> (p.fsm.Fsmkit.Fsm.fsm_name, p.fsm)) t.partitions
  in
  (datapaths, fsms)

let lint t =
  let datapaths, fsms = bundle_docs t in
  Lint.run_bundle ~rtg:t.rtg ~datapaths ~fsms ()

(* --- translation validation ------------------------------------------ *)

let partition_name prog k total =
  if total = 1 then prog.Ast.prog_name
  else Printf.sprintf "%s_p%d" prog.Ast.prog_name (k + 1)

let graph_of_cfg (cfg : Cfg.t) : Tv.graph =
  {
    Tv.entry = cfg.Cfg.entry;
    blocks =
      Array.map
        (fun (b : Cfg.block) ->
          {
            Tv.events =
              List.map
                (function
                  | Ir.Sassign (v, e) -> Tv.Eassign (v, e)
                  | Ir.Sload (v, m, a) -> Tv.Eload (v, m, a)
                  | Ir.Sstore (m, a, v) -> Tv.Estore (m, a, v)
                  | Ir.Scheck (_, c) -> Tv.Echeck c)
                b.Cfg.stmts;
            term =
              (match b.Cfg.term with
              | Cfg.Jump t -> Tv.Tjump t
              | Cfg.Branch (c, t, e) -> Tv.Tbranch (c, t, e)
              | Cfg.Halt -> Tv.Thalt);
          })
        cfg.Cfg.blocks;
  }

let rec stmt_writes_mem m = function
  | Ast.Mem_write (m', _, _) -> m' = m
  | Ast.If (_, t, e) ->
      List.exists (stmt_writes_mem m) t || List.exists (stmt_writes_mem m) e
  | Ast.While (_, b) -> List.exists (stmt_writes_mem m) b
  | Ast.Assign _ | Ast.Assert _ | Ast.Partition -> false

(* Memories no partition ever writes keep their initializer contents for
   the whole run — the only ones the abstract interpreter (and therefore
   the invariant-preservation query) may assume contents for. *)
let readonly_mem_inits prog =
  List.filter_map
    (fun (m : Ast.mem_decl) ->
      if List.exists (stmt_writes_mem m.Ast.mem_name) prog.Ast.body then None
      else Some (m.Ast.mem_name, m.Ast.mem_init))
    prog.Ast.mems

let certify ?bounds t =
  if bounds = None && t.tv <> [] then t.tv
  else
    let prog = t.program in
    let width = prog.Ast.prog_width in
    let total = List.length t.partitions in
    let source_parts = Ast.partitions t.source in
    let memories =
      List.map
        (fun (m : Ast.mem_decl) ->
          (m.Ast.mem_name, { Hwgen.size = m.Ast.mem_size }))
        prog.Ast.mems
    in
    let var_inits =
      List.map
        (fun (v : Ast.var_decl) -> (v.Ast.var_name, v.Ast.var_init))
        prog.Ast.vars
    in
    let mem_inits = readonly_mem_inits prog in
    let timed f =
      let t0 = Monotonic_clock.now () in
      let cert = f () in
      (cert, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)
    in
    let reports =
      List.concat_map
        (fun p ->
          let name = partition_name prog p.index total in
          let reps = ref [] in
          let push pass (cert, seconds) =
            reps := { Tv.partition = name; pass; cert; seconds } :: !reps
          in
          (* The per-partition reference hardware is regenerated from the
             partition's own CFG with the pass under scrutiny switched
             off — the pass input, reconstructed rather than stored. *)
          let generate ~share ~fold =
            let gen = if share then Share.generate else Hwgen.generate in
            let r =
              gen ~fold_branches:fold ~probes:prog.Ast.probes ~name ~width
                ~memories ~var_inits p.cfg
            in
            (r.Hwgen.datapath, r.Hwgen.fsm)
          in
          if t.options.optimize then
            push Tv.Optimize_pass
              (timed (fun () ->
                   Tv.validate_source ?bounds ~width
                     ~pre:(graph_of_cfg (Cfg.build (List.nth source_parts p.index)))
                     ~post:(graph_of_cfg p.cfg) ()));
          if t.options.share_operators then
            push Tv.Share_pass
              (timed (fun () ->
                   Tv.validate_hardware ?bounds ~cache:t.absint
                     ~memories:mem_inits ~pass:Tv.Share_pass
                     ~reference:
                       (generate ~share:false ~fold:t.options.fold_branches)
                     ~candidate:(p.datapath, p.fsm) ()));
          if t.options.fold_branches then
            push Tv.Fold_pass
              (timed (fun () ->
                   Tv.validate_hardware ?bounds ~cache:t.absint
                     ~memories:mem_inits ~pass:Tv.Fold_pass
                     ~reference:
                       (generate ~share:t.options.share_operators ~fold:false)
                     ~candidate:(p.datapath, p.fsm) ()));
          List.rev !reps)
        t.partitions
    in
    (* Only default-bounds certificates are cached: a call with explicit
       bounds may reach a different verdict. *)
    if bounds = None then t.tv <- reports;
    reports

let lint_deep t =
  let datapaths, fsms = bundle_docs t in
  let deep =
    Lint.run_deep ~cache:t.absint
      ~mem_inits:(readonly_mem_inits t.program)
      ~rtg:t.rtg ~datapaths ~fsms ()
  in
  let tv_diags = List.map Tv.to_diag (certify t) in
  { deep with Lint.deep_diags = deep.Lint.deep_diags @ tv_diags }

(* --- driver ---------------------------------------------------------- *)

let compile ?(options = default_options) ?(deep_gate = false)
    ?(tv_gate = false) prog =
  Lang.Check.validate prog;
  let source = prog in
  let prog = if options.optimize then Optimize.program prog else prog in
  (match check_partition_flow prog with
  | [] -> ()
  | errs -> raise (Error errs));
  let parts = Ast.partitions prog in
  let total = List.length parts in
  let memories =
    List.map
      (fun (m : Ast.mem_decl) ->
        (m.Ast.mem_name, { Hwgen.size = m.Ast.mem_size }))
      prog.Ast.mems
  in
  let var_inits =
    List.map (fun (v : Ast.var_decl) -> (v.Ast.var_name, v.Ast.var_init)) prog.Ast.vars
  in
  let partitions =
    List.mapi
      (fun k stmts ->
        let cfg = Cfg.build stmts in
        let name = partition_name prog k total in
        let result =
          let fold_branches = options.fold_branches in
          let probes = prog.Ast.probes in
          if options.share_operators then
            Share.generate ~fold_branches ~probes ~name
              ~width:prog.Ast.prog_width ~memories ~var_inits cfg
          else
            Hwgen.generate ~fold_branches ~probes ~name
              ~width:prog.Ast.prog_width ~memories ~var_inits cfg
        in
        {
          index = k;
          datapath = result.Hwgen.datapath;
          fsm = result.Hwgen.fsm;
          cfg;
          state_count = result.Hwgen.state_count;
          fu_count = result.Hwgen.fu_count;
        })
      parts
  in
  let rtg =
    let configurations =
      List.map
        (fun p ->
          let name = partition_name prog p.index total in
          {
            Rtg.cfg_name = name;
            datapath_ref = name ^ "_dp";
            fsm_ref = name ^ "_fsm";
          })
        partitions
    in
    let transitions =
      let rec chain = function
        | a :: (b :: _ as rest) ->
            { Rtg.src = a.Rtg.cfg_name; dst = b.Rtg.cfg_name } :: chain rest
        | [ _ ] | [] -> []
      in
      chain configurations
    in
    {
      Rtg.rtg_name = prog.Ast.prog_name;
      initial = (List.hd configurations).Rtg.cfg_name;
      configurations;
      transitions;
    }
  in
  Rtg.validate rtg;
  let t =
    {
      program = prog;
      source;
      options;
      partitions;
      rtg;
      tv = [];
      absint = Absint.create_cache ();
    }
  in
  let gate_diags =
    if deep_gate then (lint_deep t).Lint.deep_diags else lint t
  in
  (match Diag.errors gate_diags with
  | [] -> ()
  | errs -> raise (Error (List.map Diag.to_string errs)));
  if tv_gate then begin
    let refuted =
      List.filter
        (fun (r : Tv.report) ->
          match r.Tv.cert with Tv.Refuted _ -> true | _ -> false)
        (certify t)
    in
    match refuted with
    | [] -> ()
    | rs -> raise (Error (List.map (fun r -> Diag.to_string (Tv.to_diag r)) rs))
  end;
  t

let datapath_ref t k =
  (List.nth t.partitions k).datapath.Netlist.Datapath.dp_name

let fsm_ref t k = (List.nth t.partitions k).fsm.Fsmkit.Fsm.fsm_name
