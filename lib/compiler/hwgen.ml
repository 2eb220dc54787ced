module Ast = Lang.Ast
module Dp = Netlist.Datapath
module Builder = Netlist.Dpbuilder
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind

type memory_info = { size : int }

type result = {
  datapath : Dp.t;
  fsm : Fsm.t;
  state_count : int;
  fu_count : int;
}

let addr_width size =
  let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
  bits (max 0 (size - 1)) 0

let binop_kind : Ast.binop -> Opkind.t = function
  | Ast.Add -> Bin Add
  | Ast.Sub -> Bin Sub
  | Ast.Mul -> Bin Mul
  | Ast.Div -> Bin Divs
  | Ast.Rem -> Bin Rems
  | Ast.Band -> Bin And
  | Ast.Bor -> Bin Or
  | Ast.Bxor -> Bin Xor
  | Ast.Shl -> Bin Shl
  | Ast.Shra -> Bin Shra
  | Ast.Shrl -> Bin Shrl

let unop_kind = function Ast.Neg -> Opkind.Un Neg | Ast.Bnot -> Opkind.Un Not

let cmpop_kind : Ast.cmpop -> Opkind.t = function
  | Ast.Eq -> Cmp Eq
  | Ast.Ne -> Cmp Ne
  | Ast.Lt -> Cmp Lts
  | Ast.Le -> Cmp Les
  | Ast.Gt -> Cmp Gts
  | Ast.Ge -> Cmp Ges

(* Per-state effects recorded while walking the CFG; turned into mux
   indices and FSM settings once all value sources are known. *)
type state_effect =
  | Write_var of { var : string; source : string }
  | Mem_access of { mem : string; addr : string; din : string option }

type state_info = {
  state_name : string;
  effects : state_effect list;
  extra_settings : (string * int) list;
      (** Input-mux selects of shared FUs used by this state. *)
  next : Fsm.transition list;
}

(* An append-only list of distinct items with stable indices; the index a
   source gets when first seen is final, so FSM settings can be recorded
   eagerly. *)
type 'a source_set = { mutable items : 'a list }

let add_source set item =
  let rec find i = function
    | [] -> None
    | x :: _ when x = item -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 set.items with
  | Some i -> i
  | None ->
      set.items <- set.items @ [ item ];
      List.length set.items - 1

type ctx = {
  builder : Builder.t;
  width : int;
  share : bool;
  mutable consts : ((int * int) * string) list;  (* (value, width) -> id *)
  mutable wires : (string * string) list;  (* (source, sink), reversed *)
  mutable fus : int;
  (* Sharing state: FU pools per (kind, width), per-state occurrence
     counters, and the source sets of shared input ports. *)
  pools : (Opkind.t * int, string list ref) Hashtbl.t;
  state_counts : (Opkind.t * int, int ref) Hashtbl.t;
  port_sources : (string, string source_set) Hashtbl.t;  (* "inst.port" *)
  mutable port_order : string list;  (* reversed *)
  mutable cur_settings : (string * int) list;
}

let wire ctx ~from ~to_ = ctx.wires <- (from, to_) :: ctx.wires

let const_id ctx value w =
  match List.assoc_opt (value, w) ctx.consts with
  | Some id -> id
  | None ->
      let clean =
        if value < 0 then Printf.sprintf "m%d" (-value) else string_of_int value
      in
      let id =
        Builder.add_operator ctx.builder
          ~id:(Printf.sprintf "const_%s_w%d" clean w)
          ~kind:Const ~width:w
          ~params:[ ("value", string_of_int value) ]
          ()
      in
      ctx.fus <- ctx.fus + 1;
      ctx.consts <- ((value, w), id) :: ctx.consts;
      id

let reg_id var = "r_" ^ var

let begin_state ctx =
  Hashtbl.reset ctx.state_counts;
  ctx.cur_settings <- []

(* Allocate the functional unit for one expression node. Without sharing
   every node gets a fresh instance; with sharing, the k-th node of a
   (kind, width) within a state binds to the k-th pooled instance. *)
let alloc_fu ctx kind w =
  if not ctx.share then begin
    let id = Builder.add_operator ctx.builder ~kind ~width:w () in
    ctx.fus <- ctx.fus + 1;
    id
  end
  else begin
    let key = (kind, w) in
    let count =
      match Hashtbl.find_opt ctx.state_counts key with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.replace ctx.state_counts key r;
          r
    in
    let occurrence = !count in
    incr count;
    let pool =
      match Hashtbl.find_opt ctx.pools key with
      | Some p -> p
      | None ->
          let p = ref [] in
          Hashtbl.replace ctx.pools key p;
          p
    in
    match List.nth_opt !pool occurrence with
    | Some id -> id
    | None ->
        let id =
          Builder.add_operator ctx.builder
            ~id:
              (Printf.sprintf "%s_sh%d_w%d" (Opkind.to_string kind) occurrence w)
            ~kind ~width:w ()
        in
        ctx.fus <- ctx.fus + 1;
        pool := !pool @ [ id ];
        id
  end

(* Feed [endpoint] into [inst.port]. Without sharing this is a plain wire;
   with sharing the port accumulates sources and the select for this state
   is recorded. *)
let set_input ctx inst port endpoint =
  if not ctx.share then wire ctx ~from:endpoint ~to_:(inst ^ "." ^ port)
  else begin
    let key = inst ^ "." ^ port in
    let set =
      match Hashtbl.find_opt ctx.port_sources key with
      | Some s -> s
      | None ->
          let s = { items = [] } in
          Hashtbl.replace ctx.port_sources key s;
          ctx.port_order <- key :: ctx.port_order;
          s
    in
    let idx = add_source set endpoint in
    ctx.cur_settings <-
      (Printf.sprintf "%s_%s_sel" inst port, idx) :: ctx.cur_settings
  end

(* Expression tree -> endpoint producing its value (program width).
   Children are generated first so shared instances bind bottom-up. *)
let rec gen_expr ctx = function
  | Ast.Int v -> const_id ctx v ctx.width ^ ".y"
  | Ast.Var v -> reg_id v ^ ".q"
  | Ast.Mem_read _ -> invalid_arg "Hwgen.gen_expr: memory read survived lowering"
  | Ast.Binop (op, a, b) ->
      let ea = gen_expr ctx a in
      let eb = gen_expr ctx b in
      let id = alloc_fu ctx (binop_kind op) ctx.width in
      set_input ctx id "a" ea;
      set_input ctx id "b" eb;
      id ^ ".y"
  | Ast.Unop (op, a) ->
      let ea = gen_expr ctx a in
      let id = alloc_fu ctx (unop_kind op) ctx.width in
      set_input ctx id "a" ea;
      id ^ ".y"

(* Condition tree -> 1-bit endpoint. *)
let rec gen_cond ctx = function
  | Ast.Cmp (op, a, b) ->
      let ea = gen_expr ctx a in
      let eb = gen_expr ctx b in
      let id = alloc_fu ctx (cmpop_kind op) ctx.width in
      set_input ctx id "a" ea;
      set_input ctx id "b" eb;
      id ^ ".y"
  | Ast.Cand (a, b) ->
      let ea = gen_cond ctx a in
      let eb = gen_cond ctx b in
      let id = alloc_fu ctx (Bin And) 1 in
      set_input ctx id "a" ea;
      set_input ctx id "b" eb;
      id ^ ".y"
  | Ast.Cor (a, b) ->
      let ea = gen_cond ctx a in
      let eb = gen_cond ctx b in
      let id = alloc_fu ctx (Bin Or) 1 in
      set_input ctx id "a" ea;
      set_input ctx id "b" eb;
      id ^ ".y"
  | Ast.Cnot c ->
      let ea = gen_cond ctx c in
      let id = alloc_fu ctx (Un Not) 1 in
      set_input ctx id "a" ea;
      id ^ ".y"

(* Variables a condition reads (for branch-folding safety). *)
let cond_vars cond =
  let rec expr acc = function
    | Ast.Int _ -> acc
    | Ast.Var v -> v :: acc
    | Ast.Mem_read (_, a) -> expr acc a
    | Ast.Binop (_, a, b) -> expr (expr acc a) b
    | Ast.Unop (_, a) -> expr acc a
  in
  let rec walk acc = function
    | Ast.Cmp (_, a, b) -> expr (expr acc a) b
    | Ast.Cand (a, b) | Ast.Cor (a, b) -> walk (walk acc a) b
    | Ast.Cnot c -> walk acc c
  in
  List.sort_uniq compare (walk [] cond)

let generate_internal ~share ~fold_branches ~name ~width ~memories ~var_inits
    ~probes (cfg : Cfg.t) =
  let builder = Builder.create (name ^ "_dp") in
  let ctx =
    {
      builder;
      width;
      share;
      consts = [];
      wires = [];
      fus = 0;
      pools = Hashtbl.create 16;
      state_counts = Hashtbl.create 16;
      port_sources = Hashtbl.create 64;
      port_order = [];
      cur_settings = [];
    }
  in
  (* --- which variables and memories does this partition touch? ------- *)
  let used_vars = Hashtbl.create 16 in
  let used_mems = Hashtbl.create 8 in
  let rec scan_expr = function
    | Ast.Int _ -> ()
    | Ast.Var v -> Hashtbl.replace used_vars v ()
    | Ast.Mem_read (m, a) ->
        Hashtbl.replace used_mems m ();
        scan_expr a
    | Ast.Binop (_, a, b) ->
        scan_expr a;
        scan_expr b
    | Ast.Unop (_, a) -> scan_expr a
  in
  let rec scan_cond = function
    | Ast.Cmp (_, a, b) ->
        scan_expr a;
        scan_expr b
    | Ast.Cand (a, b) | Ast.Cor (a, b) ->
        scan_cond a;
        scan_cond b
    | Ast.Cnot c -> scan_cond c
  in
  Array.iter
    (fun (bl : Cfg.block) ->
      List.iter
        (function
          | Ir.Sassign (v, e) ->
              Hashtbl.replace used_vars v ();
              scan_expr e
          | Ir.Sload (v, m, a) ->
              Hashtbl.replace used_vars v ();
              Hashtbl.replace used_mems m ();
              scan_expr a
          | Ir.Sstore (m, a, v) ->
              Hashtbl.replace used_mems m ();
              scan_expr a;
              scan_expr v
          | Ir.Scheck (_, c) -> scan_cond c)
        bl.Cfg.stmts;
      match bl.Cfg.term with
      | Cfg.Branch (c, _, _) -> scan_cond c
      | Cfg.Jump _ | Cfg.Halt -> ())
    cfg.Cfg.blocks;
  (* --- registers ----------------------------------------------------- *)
  let all_inits = var_inits @ List.map (fun t -> (t, 0)) cfg.Cfg.temps in
  let vars_in_order =
    List.filter (fun (v, _) -> Hashtbl.mem used_vars v) all_inits
  in
  List.iter
    (fun (v, init) ->
      let params = if init = 0 then [] else [ ("init", string_of_int init) ] in
      ignore
        (Builder.add_operator builder ~id:(reg_id v) ~kind:Reg ~width ~params ());
      ctx.fus <- ctx.fus + 1)
    vars_in_order;
  (* --- probe declarations --------------------------------------------- *)
  List.iter
    (fun v ->
      if List.exists (fun (v', _) -> v' = v) vars_in_order then begin
        let inst =
          Builder.add_operator builder ~id:("probe_" ^ v) ~kind:Probe ~width ()
        in
        wire ctx ~from:(reg_id v ^ ".q") ~to_:(inst ^ ".a")
      end)
    probes;
  (* --- memories ------------------------------------------------------ *)
  let mems_in_order =
    List.filter (fun (m, _) -> Hashtbl.mem used_mems m) memories
  in
  List.iter
    (fun (m, { size }) ->
      ignore
        (Builder.add_operator builder ~id:("sram_" ^ m) ~kind:Sram ~width
           ~params:
             [
               ("memory", m);
               ("addr-width", string_of_int (addr_width size));
               ("size", string_of_int size);
             ]
           ());
      ctx.fus <- ctx.fus + 1)
    mems_in_order;
  (* --- walk the CFG, build states ------------------------------------ *)
  let var_sources : (string, string source_set) Hashtbl.t = Hashtbl.create 16 in
  let mem_addr_sources : (string, string source_set) Hashtbl.t = Hashtbl.create 8 in
  let mem_din_sources : (string, string source_set) Hashtbl.t = Hashtbl.create 8 in
  let sources_of table key =
    match Hashtbl.find_opt table key with
    | Some s -> s
    | None ->
        let s = { items = [] } in
        Hashtbl.replace table key s;
        s
  in
  let states = ref [] in
  let add_state state = states := state :: !states in
  let branch_statuses = ref [] in
  let check_controls = ref [] in  (* enables of assertion check operators *)
  let n_blocks = Array.length cfg.Cfg.blocks in
  let stmt_state_names =
    Array.init n_blocks (fun b ->
        List.mapi
          (fun j _ -> Printf.sprintf "b%d_s%d" b j)
          cfg.Cfg.blocks.(b).Cfg.stmts)
  in
  (* Branch folding: the test merges into the block's last statement
     state when that statement does not write a variable the condition
     reads (registers hold their pre-edge values when the FSM samples the
     status, so the folded transition would otherwise use a stale
     operand... precisely when the statement defines a condition input,
     which is the unsafe case we exclude). *)
  let folds =
    Array.init n_blocks (fun b ->
        let bl = cfg.Cfg.blocks.(b) in
        fold_branches
        && bl.Cfg.stmts <> []
        &&
        match bl.Cfg.term with
        | Cfg.Branch (cond, _, _) -> (
            let written =
              match List.nth bl.Cfg.stmts (List.length bl.Cfg.stmts - 1) with
              | Ir.Sassign (v, _) | Ir.Sload (v, _, _) -> Some v
              | Ir.Sstore _ | Ir.Scheck _ -> None
            in
            match written with
            | Some v -> not (List.mem v (cond_vars cond))
            | None -> true)
        | Cfg.Jump _ | Cfg.Halt -> false)
  in
  let branch_state_name =
    Array.init n_blocks (fun b ->
        match cfg.Cfg.blocks.(b).Cfg.term with
        | Cfg.Branch _ when not folds.(b) -> Some (Printf.sprintf "b%d_br" b)
        | Cfg.Branch _ | Cfg.Jump _ | Cfg.Halt -> None)
  in
  (* Entry state of a block, resolving empty jump-only blocks. *)
  let rec entry_state ?(seen = []) b =
    if List.mem b seen then
      failwith "Hwgen: empty infinite loop in the control-flow graph";
    match (stmt_state_names.(b), branch_state_name.(b)) with
    | first :: _, _ -> first
    | [], Some br -> br
    | [], None -> (
        match cfg.Cfg.blocks.(b).Cfg.term with
        | Cfg.Jump target -> entry_state ~seen:(b :: seen) target
        | Cfg.Halt -> "halt"
        | Cfg.Branch _ -> assert false)
  in
  let after_last_stmt b =
    match branch_state_name.(b) with
    | Some br -> br
    | None -> (
        match cfg.Cfg.blocks.(b).Cfg.term with
        | Cfg.Jump target -> entry_state target
        | Cfg.Halt -> "halt"
        | Cfg.Branch _ -> assert false (* folded: handled in the stmt loop *))
  in
  let branch_transitions b cond then_b else_b =
    let status_name = Printf.sprintf "br%d" b in
    let endpoint = gen_cond ctx cond in
    branch_statuses := (status_name, endpoint) :: !branch_statuses;
    [
      {
        Fsm.guard = Guard.Test { signal = status_name; op = Guard.Cne; value = 0 };
        target = entry_state then_b;
      };
      { Fsm.guard = Guard.True; target = entry_state else_b };
    ]
  in
  Array.iteri
    (fun b (bl : Cfg.block) ->
      let stmt_names = stmt_state_names.(b) in
      List.iteri
        (fun j stmt ->
          let state_name = List.nth stmt_names j in
          let is_last = j = List.length stmt_names - 1 in
          begin_state ctx;
          let effects =
            match stmt with
            | Ir.Scheck (k, cond) ->
                (* Assertion: a [check] operator expecting 1, enabled only
                   in this state. *)
                let root = gen_cond ctx cond in
                let inst =
                  Builder.add_operator builder
                    ~id:(Printf.sprintf "check%d" k)
                    ~kind:Check ~width:1
                    ~params:[ ("value", "1") ]
                    ()
                in
                let en = Printf.sprintf "check%d_en" k in
                check_controls := en :: !check_controls;
                wire ctx ~from:root ~to_:(inst ^ ".a");
                wire ctx ~from:("ctl." ^ en) ~to_:(inst ^ ".en");
                ctx.cur_settings <- (en, 1) :: ctx.cur_settings;
                []
            | Ir.Sassign (v, e) ->
                [ Write_var { var = v; source = gen_expr ctx e } ]
            | Ir.Sload (v, m, a) ->
                [
                  Mem_access { mem = m; addr = gen_expr ctx a; din = None };
                  Write_var { var = v; source = "sram_" ^ m ^ ".dout" };
                ]
            | Ir.Sstore (m, a, v) ->
                [
                  Mem_access
                    {
                      mem = m;
                      addr = gen_expr ctx a;
                      din = Some (gen_expr ctx v);
                    };
                ]
          in
          let next =
            if is_last && folds.(b) then
              match bl.Cfg.term with
              | Cfg.Branch (cond, then_b, else_b) ->
                  (* Folded: the test's condition tree lives in this
                     state (same shared-FU select context). *)
                  branch_transitions b cond then_b else_b
              | Cfg.Jump _ | Cfg.Halt -> assert false
            else
              let next_name =
                match List.nth_opt stmt_names (j + 1) with
                | Some n -> n
                | None -> after_last_stmt b
              in
              [ { Fsm.guard = Guard.True; target = next_name } ]
          in
          add_state
            {
              state_name;
              effects;
              extra_settings = ctx.cur_settings;
              next;
            })
        bl.Cfg.stmts;
      match bl.Cfg.term with
      | Cfg.Branch (cond, then_b, else_b) when not folds.(b) ->
          let state_name = Option.get branch_state_name.(b) in
          begin_state ctx;
          let next = branch_transitions b cond then_b else_b in
          add_state
            {
              state_name;
              effects = [];
              extra_settings = ctx.cur_settings;
              next;
            }
      | Cfg.Branch _ | Cfg.Jump _ | Cfg.Halt -> ())
    cfg.Cfg.blocks;
  let states = List.rev !states in
  (* --- per-state FSM settings (mux indices known and stable) --------- *)
  let state_settings =
    List.map
      (fun st ->
        let settings = ref st.extra_settings in
        List.iter
          (function
            | Write_var { var; source } ->
                let idx = add_source (sources_of var_sources var) source in
                settings := (var ^ "_en", 1) :: (var ^ "_sel", idx) :: !settings
            | Mem_access { mem; addr; din } ->
                let aidx = add_source (sources_of mem_addr_sources mem) addr in
                settings := (mem ^ "_asel", aidx) :: !settings;
                (match din with
                | Some din ->
                    let didx = add_source (sources_of mem_din_sources mem) din in
                    settings :=
                      (mem ^ "_we", 1) :: (mem ^ "_dsel", didx) :: !settings
                | None -> ()))
          st.effects;
        (st.state_name, !settings))
      states
  in
  (* --- muxes, control declarations, final wiring --------------------- *)
  let controls = ref [] in
  let add_control name w = controls := !controls @ [ (name, w) ] in
  let connect_sources ~mux_id ~sel sources sink w =
    match sources with
    | [] -> ()
    | [ single ] -> wire ctx ~from:single ~to_:sink
    | several ->
        let n = List.length several in
        let id =
          Builder.add_operator builder ~id:mux_id ~kind:Mux ~width:w
            ~params:[ ("inputs", string_of_int n) ]
            ()
        in
        ctx.fus <- ctx.fus + 1;
        List.iteri
          (fun i src -> wire ctx ~from:src ~to_:(Printf.sprintf "%s.in%d" id i))
          several;
        add_control sel (Opspec.sel_width n);
        wire ctx ~from:("ctl." ^ sel) ~to_:(id ^ ".sel");
        wire ctx ~from:(id ^ ".y") ~to_:sink
  in
  (* Shared-FU input ports. *)
  List.iter
    (fun key ->
      let set = Hashtbl.find ctx.port_sources key in
      let ep = Dp.endpoint_of_string key in
      (* The width its pool was made for: 1-bit condition gates share
         apart from data-width units. *)
      let w =
        Hashtbl.fold
          (fun (_, w) ids found -> if List.mem ep.Dp.inst !ids then w else found)
          ctx.pools width
      in
      connect_sources
        ~mux_id:(Printf.sprintf "mux_%s_%s" ep.Dp.inst ep.Dp.port)
        ~sel:(Printf.sprintf "%s_%s_sel" ep.Dp.inst ep.Dp.port)
        set.items (key) w)
    (List.rev ctx.port_order);
  (* Variable registers. *)
  List.iter
    (fun (v, _) ->
      let sources =
        match Hashtbl.find_opt var_sources v with Some s -> s.items | None -> []
      in
      let rid = reg_id v in
      match sources with
      | [] ->
          wire ctx ~from:(const_id ctx 0 width ^ ".y") ~to_:(rid ^ ".d");
          wire ctx ~from:(const_id ctx 0 1 ^ ".y") ~to_:(rid ^ ".en")
      | _ ->
          connect_sources ~mux_id:("mux_" ^ v) ~sel:(v ^ "_sel") sources
            (rid ^ ".d") width;
          add_control (v ^ "_en") 1;
          wire ctx ~from:("ctl." ^ v ^ "_en") ~to_:(rid ^ ".en"))
    vars_in_order;
  (* Memory ports. *)
  List.iter
    (fun (m, { size }) ->
      let sid = "sram_" ^ m in
      let aw = addr_width size in
      let trunc =
        Builder.add_operator builder ~id:("trunc_" ^ m) ~kind:Zext ~width:aw
          ~params:[ ("from", string_of_int width) ]
          ()
      in
      ctx.fus <- ctx.fus + 1;
      let asources =
        match Hashtbl.find_opt mem_addr_sources m with
        | Some s -> s.items
        | None -> []
      in
      (match asources with
      | [] -> wire ctx ~from:(const_id ctx 0 width ^ ".y") ~to_:(trunc ^ ".a")
      | _ ->
          connect_sources ~mux_id:("mux_" ^ m ^ "_addr") ~sel:(m ^ "_asel")
            asources (trunc ^ ".a") width);
      wire ctx ~from:(trunc ^ ".y") ~to_:(sid ^ ".addr");
      let dsources =
        match Hashtbl.find_opt mem_din_sources m with
        | Some s -> s.items
        | None -> []
      in
      match dsources with
      | [] ->
          wire ctx ~from:(const_id ctx 0 width ^ ".y") ~to_:(sid ^ ".din");
          wire ctx ~from:(const_id ctx 0 1 ^ ".y") ~to_:(sid ^ ".we")
      | _ ->
          connect_sources ~mux_id:("mux_" ^ m ^ "_din") ~sel:(m ^ "_dsel")
            dsources (sid ^ ".din") width;
          add_control (m ^ "_we") 1;
          wire ctx ~from:("ctl." ^ m ^ "_we") ~to_:(sid ^ ".we"))
    mems_in_order;
  (* Declare controls and statuses on the datapath. *)
  List.iter (fun en -> add_control en 1) (List.rev !check_controls);
  List.iter (fun (nm, w) -> Builder.add_control builder nm w) !controls;
  List.iter
    (fun (nm, endpoint) -> Builder.add_status builder ~name:nm ~from:endpoint)
    (List.rev !branch_statuses);
  (* Emit nets grouped by source endpoint. *)
  let by_source : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
  let source_order = ref [] in
  List.iter
    (fun (src, sink) ->
      match Hashtbl.find_opt by_source src with
      | Some r -> r := sink :: !r
      | None ->
          Hashtbl.replace by_source src (ref [ sink ]);
          source_order := src :: !source_order)
    (List.rev ctx.wires);
  List.iter
    (fun src ->
      let sinks = List.rev !(Hashtbl.find by_source src) in
      Builder.connect builder ~from:src sinks)
    (List.rev !source_order);
  let datapath = Builder.finish builder in
  Dp.validate datapath;
  (* --- FSM ------------------------------------------------------------ *)
  let declared_settings = List.map fst !controls in
  let fsm_states =
    List.map
      (fun st ->
        let settings =
          List.filter
            (fun (nm, _) -> List.mem nm declared_settings)
            (List.assoc st.state_name state_settings)
        in
        {
          Fsm.sname = st.state_name;
          is_done = false;
          settings = List.sort_uniq compare settings;
          transitions = st.next;
        })
      states
    @ [ { Fsm.sname = "halt"; is_done = true; settings = []; transitions = [] } ]
  in
  let fsm =
    {
      Fsm.fsm_name = name ^ "_fsm";
      inputs =
        List.map
          (fun (nm, _) -> { Fsm.io_name = nm; io_width = 1; default = 0 })
          (List.rev !branch_statuses);
      outputs =
        List.map
          (fun (nm, w) -> { Fsm.io_name = nm; io_width = w; default = 0 })
          !controls;
      initial = entry_state cfg.Cfg.entry;
      states = fsm_states;
    }
  in
  Fsm.validate fsm;
  {
    datapath;
    fsm;
    state_count = List.length fsm_states;
    fu_count = Dp.functional_unit_count datapath;
  }

let generate ?(fold_branches = false) ?(probes = []) ~name ~width ~memories
    ~var_inits cfg =
  generate_internal ~share:false ~fold_branches ~name ~width ~memories
    ~var_inits ~probes cfg

let generate_shared ?(fold_branches = false) ?(probes = []) ~name ~width
    ~memories ~var_inits cfg =
  generate_internal ~share:true ~fold_branches ~name ~width ~memories
    ~var_inits ~probes cfg
