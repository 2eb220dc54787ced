module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind
module Memory = Operators.Memory
module Compile = Compiler.Compile

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let max_lanes = 63
let max_mutants_per_batch = max_lanes - 1

(* The event engine allows 10_000 delta cycles per time point; waves map
   one-to-one onto deltas, so the same bound detects the same loops. *)
let max_waves = 10_000


(* --- compiled design descriptors --------------------------------------- *)

(* Cells are the output-port and control signals; ints index into the
   instance's cell array. Combinational descriptors carry an implicit
   pid (their array index), which is the event engine's process-creation
   order — waves run them in that order, as deltas do. *)

type comb_desc =
  | Cbin of { f : int -> int -> int; a : int; b : int; y : int }
  | Cun of { f : int -> int; a : int; y : int }
  | Cconst of { v : int; y : int }
  | Cmux of { ins : int array; sel : int; y : int }
  | Cmemrd of { mslot : int; addr : int; dout : int }
  | Cstop of { en : int }
  | Cfsminit  (* the fsm-init process: assert the current state's outputs *)

type edge_desc =
  | Ereg of { d : int; en : int; q : int }
  | Ecounter of { en : int; load : int; d : int; q : int; step : int; m : int }
  | Esramwr of { mslot : int; addr : int; din : int; we : int; dout : int }
  | Echeck of { a : int; en : int; expect : int; stop : bool }

(* Guards with status names resolved to cell ids, so evaluation is
   plain array indexing (no per-step lookup closure). *)
type cguard =
  | Gtrue
  | Gtest of { cell : int; op : Guard.cmp; value : int }
  | Gnot of cguard
  | Gand of cguard * cguard
  | Gor of cguard * cguard

type strans = {
  tr_guard : Guard.t;
  tr_test : cguard;
  tr_target : int;
  tr_delta : (int * int) array;
      (* control sets that differ from the source state's — staging the
         rest would commit unchanged values, i.e. no events *)
  tr_done : bool;  (* the target is a done state *)
}

type sstate = {
  st_done : bool;
  st_sets : (int * int) array;  (* control cell, value (all outputs) *)
  st_trans : strans array;
}

type design = {
  d_cfg : string;
  d_widths : int array;  (* cell id -> width *)
  d_cell_index : (string, int) Hashtbl.t;
  d_n_ports : int;  (* cells < d_n_ports are operator output ports *)
  d_comb : comb_desc array;
  d_succs : int array array;  (* cell id -> sensitive comb pids *)
  d_edge : edge_desc array;
  d_reg_inits : (int * int) array;
  d_mems : string array;
  d_fsm : Fsm.t;
  d_states : sstate array;
  d_initial : int;
  d_statuses : (string * int) list;
}

type t = { configs : design array }

let compile_design ~cfg (dp : Dp.t) (fsm : Fsm.t) =
  let e = Elab.of_datapath dp in
  Fsm.validate fsm;
  let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let widths = ref [] in
  let n_cells = ref 0 in
  let add_cell name width =
    let id = !n_cells in
    Hashtbl.replace index name id;
    widths := width :: !widths;
    incr n_cells;
    id
  in
  List.iter
    (fun (o : Elab.op) ->
      List.iter
        (fun (p : Opspec.port) ->
          if p.Opspec.direction = Opspec.Out then
            ignore (add_cell (Elab.endpoint o p) p.Opspec.port_width))
        o.Elab.spec.Opspec.ports)
    (Elab.ops e);
  let n_ports = !n_cells in
  List.iter
    (fun (c : Dp.control) ->
      ignore (add_cell ("ctl." ^ c.Dp.ctl_name) c.Dp.ctl_width))
    dp.Dp.controls;
  let in_cell o port =
    match Elab.driver o port with
    | Elab.Op_out (src, p) -> Hashtbl.find index (Elab.endpoint src p)
    | Elab.Ctl c -> Hashtbl.find index ("ctl." ^ c.Dp.ctl_name)
  in
  let out_cell o = Hashtbl.find index (Elab.endpoint o (Elab.out_port o)) in
  let mems = ref [] and n_mems = ref 0 in
  let mem_slot name =
    let rec find i = function
      | [] ->
          mems := name :: !mems;
          incr n_mems;
          !n_mems - 1
      | m :: _ when m = name -> !n_mems - 1 - i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 !mems
  in
  let comb = ref [] and n_comb = ref 0 in
  let edge = ref [] in
  let reg_inits = ref [] in
  (* cell -> sensitive comb pids, in registration order *)
  let sens = Array.make !n_cells [] in
  let add_comb desc inputs =
    let pid = !n_comb in
    comb := desc :: !comb;
    incr n_comb;
    List.iter
      (fun c -> if not (List.mem pid sens.(c)) then sens.(c) <- pid :: sens.(c))
      inputs
  in
  List.iter
    (fun (op : Elab.op) ->
      let width = op.Elab.width and p = op.Elab.spec.Opspec.params in
      let unary f =
        let a = in_cell op "a" in
        add_comb (Cun { f; a; y = out_cell op }) [ a ]
      in
      let binary f =
        let a = in_cell op "a" and b = in_cell op "b" in
        add_comb (Cbin { f; a; b; y = out_cell op }) [ a; b ]
      in
      match op.Elab.kind with
      | Bin o -> binary (Opkind.bin_int ~width o)
      | Cmp o -> binary (Opkind.cmp_int ~width o)
      | Un o -> unary (Opkind.un_int ~width o)
      | Const ->
          add_comb
            (Cconst
               {
                 v = p.value land Opkind.mask width;
                 y = out_cell op;
               })
            []
      | Zext ->
          let m = Opkind.mask width in
          unary (fun v -> v land m)
      | Sext ->
          let m = Opkind.mask width in
          unary (fun v -> Opkind.to_signed p.from v land m)
      | Mux ->
          let ins =
            Array.init p.inputs (fun i -> in_cell op (Printf.sprintf "in%d" i))
          in
          let sel = in_cell op "sel" in
          add_comb
            (Cmux { ins; sel; y = out_cell op })
            (sel :: Array.to_list ins)
      | Reg ->
          let q = out_cell op in
          reg_inits :=
            (q, Option.value p.init ~default:0 land Opkind.mask width) :: !reg_inits;
          edge := Ereg { d = in_cell op "d"; en = in_cell op "en"; q } :: !edge
      | Counter ->
          edge :=
            Ecounter
              {
                en = in_cell op "en";
                load = in_cell op "load";
                d = in_cell op "d";
                q = out_cell op;
                step = p.step land Opkind.mask width;
                m = Opkind.mask width;
              }
            :: !edge
      | Sram ->
          let mslot = mem_slot p.memory in
          let addr = in_cell op "addr" in
          let dout = out_cell op in
          (* Read process first, write process second — the event
             engine's creation order for the same instance. *)
          add_comb (Cmemrd { mslot; addr; dout }) [ addr ];
          edge :=
            Esramwr
              {
                mslot;
                addr;
                din = in_cell op "din";
                we = in_cell op "we";
                dout;
              }
            :: !edge
      | Rom ->
          let mslot = mem_slot p.memory in
          let addr = in_cell op "addr" in
          add_comb (Cmemrd { mslot; addr; dout = out_cell op }) [ addr ]
      | Probe ->
          (* Probe samples are notifications only; nothing the campaign
             verdicts observe. *)
          ()
      | Check ->
          edge :=
            Echeck
              {
                a = in_cell op "a";
                en = in_cell op "en";
                expect = p.value land Opkind.mask width;
                stop = p.action = Halt;
              }
            :: !edge
      | Stop ->
          let en = in_cell op "en" in
          add_comb (Cstop { en }) [ en ])
    (Elab.ops e);
  (* fsm-init runs after every operator process, like its pid does. *)
  add_comb Cfsminit [];
  let statuses =
    List.map
      (fun (st : Dp.status) ->
        (st.Dp.st_name, Hashtbl.find index (Dp.endpoint_to_string st.Dp.st_source)))
      dp.Dp.statuses
  in
  let state_index = List.mapi (fun i (s : Fsm.state) -> (s.Fsm.sname, i)) fsm.Fsm.states in
  let rec compile_guard = function
    | Guard.True -> Gtrue
    | Guard.Test { signal; op; value } -> (
        match List.assoc_opt signal statuses with
        | Some cell -> Gtest { cell; op; value }
        | None ->
            failwith
              (Printf.sprintf "fastsim: fsm %s: guard reads unknown status %S"
                 fsm.Fsm.fsm_name signal))
    | Guard.Not g -> Gnot (compile_guard g)
    | Guard.And (a, b) -> Gand (compile_guard a, compile_guard b)
    | Guard.Or (a, b) -> Gor (compile_guard a, compile_guard b)
  in
  let control_cell name =
    match Hashtbl.find_opt index ("ctl." ^ name) with
    | Some c -> c
    | None ->
        failwith
          (Printf.sprintf "fastsim: fsm %s: design has no control %S"
             fsm.Fsm.fsm_name name)
  in
  let states =
    Array.of_list
      (List.map
         (fun (s : Fsm.state) ->
           {
             st_done = s.Fsm.is_done;
             st_sets =
               Array.of_list
                 (List.map
                    (fun (o : Fsm.io) ->
                      (control_cell o.Fsm.io_name,
                       Fsm.output_in_state fsm s o.Fsm.io_name))
                    fsm.Fsm.outputs);
             st_trans =
               Array.of_list
                 (List.map
                    (fun (tr : Fsm.transition) ->
                      {
                        tr_guard = tr.Fsm.guard;
                        tr_test = compile_guard tr.Fsm.guard;
                        tr_target = List.assoc tr.Fsm.target state_index;
                        tr_delta = [||];
                        tr_done = false;
                      })
                    s.Fsm.transitions);
           })
         fsm.Fsm.states)
  in
  (* Second pass: per-transition control deltas. [st_sets] is aligned
     across states (one slot per FSM output, document order), so the
     delta is a slot-wise comparison. *)
  let states =
    Array.map
      (fun s ->
        {
          s with
          st_trans =
            Array.map
              (fun tr ->
                let tgt = states.(tr.tr_target) in
                let delta = ref [] in
                Array.iteri
                  (fun k (c, v) ->
                    if v <> snd s.st_sets.(k) then delta := (c, v) :: !delta)
                  tgt.st_sets;
                {
                  tr with
                  tr_delta = Array.of_list (List.rev !delta);
                  tr_done = tgt.st_done;
                })
              s.st_trans;
        })
      states
  in
  {
    d_cfg = cfg;
    d_widths = Array.of_list (List.rev !widths);
    d_cell_index = index;
    d_n_ports = n_ports;
    d_comb = Array.of_list (List.rev !comb);
    d_succs = Array.map (fun l -> Array.of_list (List.rev l)) sens;
    d_edge = Array.of_list (List.rev !edge);
    d_reg_inits = Array.of_list (List.rev !reg_inits);
    d_mems = Array.of_list (List.rev !mems);
    d_fsm = fsm;
    d_states = states;
    d_initial = List.assoc fsm.Fsm.initial state_index;
    d_statuses = statuses;
  }

let compile (compiled : Compile.t) =
  let datapaths =
    List.map
      (fun (p : Compile.partition) -> (p.Compile.datapath.Dp.dp_name, p))
      compiled.Compile.partitions
  in
  let configs =
    List.map
      (fun cfg_name ->
        let cfg =
          match Rtg.find_configuration compiled.Compile.rtg cfg_name with
          | Some c -> c
          | None -> failwith (Printf.sprintf "fastsim: no configuration %S" cfg_name)
        in
        let p =
          match List.assoc_opt cfg.Rtg.datapath_ref datapaths with
          | Some p -> p
          | None ->
              failwith
                (Printf.sprintf "fastsim: unresolved datapath %S" cfg.Rtg.datapath_ref)
        in
        compile_design ~cfg:cfg_name p.Compile.datapath p.Compile.fsm)
      (Rtg.execution_order compiled.Compile.rtg)
  in
  { configs = Array.of_list configs }

(* --- admission --------------------------------------------------------- *)

(* The dependency order {!Cyclesim} evaluates in exists. *)
let globally_acyclic (dp : Dp.t) =
  snd (Elab.levelize (Elab.of_datapath dp) ~deps:Elab.comb_preds) = []

let admissible (compiled : Compile.t) =
  let check_partition (p : Compile.partition) =
    if globally_acyclic p.Compile.datapath then Ok ()
    else
      (* Structurally cyclic: admit only when the abstract interpreter
         proves every cyclic component dynamically acyclic (AI007). *)
      match
        Absint.analyze ~cache:compiled.Compile.absint p.Compile.datapath
          p.Compile.fsm
      with
      | exception e ->
          Error
            (Printf.sprintf "partition %s: cycle analysis failed (%s)"
               p.Compile.datapath.Dp.dp_name (Printexc.to_string e))
      | ai ->
          if Absint.all_cycles_proved ai then Ok ()
          else
            Error
              (Printf.sprintf
                 "partition %s: combinational cycles not proved acyclic"
                 p.Compile.datapath.Dp.dp_name)
  in
  List.fold_left
    (fun acc p -> match acc with Error _ -> acc | Ok () -> check_partition p)
    (Ok ()) compiled.Compile.partitions

(* --- lanes -------------------------------------------------------------- *)

type lane_spec = {
  memories : string -> Memory.t;
  injections : (string option * string * (Bitvec.t -> Bitvec.t)) list;
  mutate_fsm : Fsm.t -> Fsm.t;
}

type lane_result = {
  completed : bool;
  total_cycles : int;
  checks : int;
  interrupted : bool;
}

let clean_lane memories = { memories; injections = []; mutate_fsm = Fun.id }

(* --- the lane-parallel evaluator ---------------------------------------- *)

type icell = {
  ic_vals : int array;  (* committed value, per lane *)
  ic_pend : int array;  (* staged value, per lane *)
  mutable ic_staged : int;  (* lane mask of staged slots *)
  mutable ic_cmask : int;  (* lane mask of installed corruptions *)
  ic_corrupt : (int -> int) option array;  (* fault transform, per lane *)
  ic_succs : int array;
}

type inst = {
  i_d : design;
  i_cells : icell array;
  i_mems : Memory.t array array;  (* [slot].(lane) *)
  i_dirty : int array;  (* per comb pid: lane mask awaiting evaluation *)
  mutable i_dirty_pids : int list;  (* pids with a nonzero dirty mask *)
  mutable i_touched : icell list;  (* cells with staged values *)
  i_state : int array;  (* per lane: FSM state index *)
  i_over : (int * int * int) list array;  (* per lane (state, trans, target) *)
  i_stop : bool array;  (* per lane: stop requested *)
  i_entered_done : bool array;  (* per lane: entered a done state *)
  i_checks : int array;  (* per lane: check failures in this config *)
  mutable i_running : int;  (* lane mask *)
}

let[@inline] stage st c l v =
  let bit = 1 lsl l in
  let v =
    if c.ic_cmask land bit = 0 then v
    else match c.ic_corrupt.(l) with Some f -> f v | None -> v
  in
  if c.ic_staged land bit <> 0 then
    (* Same-delta collision: last drive wins, like the event queue. *)
    c.ic_pend.(l) <- v
  else if c.ic_vals.(l) <> v then begin
    (* Staging an unchanged value commits to no event; skip it outright. *)
    if c.ic_staged = 0 then st.i_touched <- c :: st.i_touched;
    c.ic_staged <- c.ic_staged lor bit;
    c.ic_pend.(l) <- v
  end

let eval_comb st desc l =
  let cells = st.i_cells in
  match desc with
  | Cbin { f; a; b; y } ->
      stage st cells.(y) l (f cells.(a).ic_vals.(l) cells.(b).ic_vals.(l))
  | Cun { f; a; y } -> stage st cells.(y) l (f cells.(a).ic_vals.(l))
  | Cconst { v; y } -> stage st cells.(y) l v
  | Cmux { ins; sel; y } ->
      let i = min cells.(sel).ic_vals.(l) (Array.length ins - 1) in
      stage st cells.(y) l cells.(ins.(i)).ic_vals.(l)
  | Cmemrd { mslot; addr; dout } ->
      stage st cells.(dout) l
        (Memory.read_int st.i_mems.(mslot).(l) cells.(addr).ic_vals.(l))
  | Cstop { en } -> if cells.(en).ic_vals.(l) = 1 then st.i_stop.(l) <- true
  | Cfsminit ->
      Array.iter
        (fun (c, v) -> stage st cells.(c) l v)
        st.i_d.d_states.(st.i_state.(l)).st_sets

let eval_edge st desc l =
  let cells = st.i_cells in
  match desc with
  | Ereg { d; en; q } ->
      if cells.(en).ic_vals.(l) = 1 then stage st cells.(q) l cells.(d).ic_vals.(l)
  | Ecounter { en; load; d; q; step; m } ->
      if cells.(load).ic_vals.(l) = 1 then
        stage st cells.(q) l cells.(d).ic_vals.(l)
      else if cells.(en).ic_vals.(l) = 1 then
        stage st cells.(q) l ((cells.(q).ic_vals.(l) + step) land m)
  | Esramwr { mslot; addr; din; we; dout } ->
      let mem = st.i_mems.(mslot).(l) in
      let a = cells.(addr).ic_vals.(l) in
      if cells.(we).ic_vals.(l) = 1 then
        Memory.write_int mem a cells.(din).ic_vals.(l);
      stage st cells.(dout) l (Memory.read_int mem a)
  | Echeck { a; en; expect; stop } ->
      if cells.(en).ic_vals.(l) = 1 && cells.(a).ic_vals.(l) <> expect then begin
        st.i_checks.(l) <- st.i_checks.(l) + 1;
        if stop then st.i_stop.(l) <- true
      end

let rec eval_guard cells l = function
  | Gtrue -> true
  | Gtest { cell; op; value } -> (
      let v = cells.(cell).ic_vals.(l) in
      match op with
      | Guard.Ceq -> v = value
      | Guard.Cne -> v <> value
      | Guard.Clt -> v < value
      | Guard.Cle -> v <= value
      | Guard.Cgt -> v > value
      | Guard.Cge -> v >= value)
  | Gnot g -> not (eval_guard cells l g)
  | Gand (a, b) -> eval_guard cells l a && eval_guard cells l b
  | Gor (a, b) -> eval_guard cells l a || eval_guard cells l b

let fsm_step st l =
  let d = st.i_d in
  let s = d.d_states.(st.i_state.(l)) in
  let n = Array.length s.st_trans in
  let rec first i =
    if i >= n then -1
    else if eval_guard st.i_cells l s.st_trans.(i).tr_test then i
    else first (i + 1)
  in
  let i = first 0 in
  if i >= 0 then begin
    let tr = s.st_trans.(i) in
    match st.i_over.(l) with
    | [] ->
        if tr.tr_target <> st.i_state.(l) then begin
          st.i_state.(l) <- tr.tr_target;
          Array.iter (fun (c, v) -> stage st st.i_cells.(c) l v) tr.tr_delta;
          if tr.tr_done then st.i_entered_done.(l) <- true
        end
    | over ->
        let target =
          let rec overridden = function
            | [] -> tr.tr_target
            | (si, ti, t) :: rest ->
                if si = st.i_state.(l) && ti = i then t else overridden rest
          in
          overridden over
        in
        if target <> st.i_state.(l) then begin
          st.i_state.(l) <- target;
          let ns = d.d_states.(target) in
          Array.iter (fun (c, v) -> stage st st.i_cells.(c) l v) ns.st_sets;
          if ns.st_done then st.i_entered_done.(l) <- true
        end
  end

(* Sorted insertion keeps the woken-pid worklist in pid order as it is
   built (wakes are guarded by [prev = 0], so it stays duplicate-free):
   the settle loop then needs no per-wave sort. *)
let rec insert_pid pid = function
  | [] -> [ pid ]
  | p :: _ as l when pid < p -> pid :: l
  | p :: rest -> p :: insert_pid pid rest

(* One settling pass: waves of apply-staged / evaluate-dirty, mirroring
   the event engine's delta cycles within a time point. *)
let settle st =
  let waves = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr waves;
    if !waves > max_waves then
      unsupported "no convergence after %d waves (combinational loop)" max_waves;
    (* Phase 1: commit staged values, wake dependents of changed cells. *)
    let touched = st.i_touched in
    st.i_touched <- [];
    List.iter
      (fun c ->
        let m = c.ic_staged in
        c.ic_staged <- 0;
        let changed = ref 0 in
        let l = ref 0 in
        let mm = ref m in
        while !mm <> 0 do
          if !mm land 0xFF = 0 then begin
            l := !l + 8;
            mm := !mm lsr 8
          end
          else begin
            if !mm land 1 <> 0 then begin
              let v = c.ic_pend.(!l) in
              if c.ic_vals.(!l) <> v then begin
                c.ic_vals.(!l) <- v;
                changed := !changed lor (1 lsl !l)
              end
            end;
            incr l;
            mm := !mm lsr 1
          end
        done;
        if !changed <> 0 then begin
          let ch = !changed in
          Array.iter
            (fun pid ->
              let prev = st.i_dirty.(pid) in
              if prev = 0 then
                st.i_dirty_pids <- insert_pid pid st.i_dirty_pids;
              st.i_dirty.(pid) <- prev lor ch)
            c.ic_succs
        end)
      touched;
    (* Phase 2: evaluate woken processes in pid order. *)
    let ran = ref false in
    (match st.i_dirty_pids with
    | [] -> ()
    | pids ->
        st.i_dirty_pids <- [];
        let combs = st.i_d.d_comb in
        List.iter
          (fun pid ->
            let m = st.i_dirty.(pid) land st.i_running in
            st.i_dirty.(pid) <- 0;
            if m <> 0 then begin
              ran := true;
              let desc = combs.(pid) in
              let l = ref 0 in
              let mm = ref m in
              while !mm <> 0 do
                if !mm land 0xFF = 0 then begin
                  l := !l + 8;
                  mm := !mm lsr 8
                end
                else begin
                  if !mm land 1 <> 0 then eval_comb st desc !l;
                  incr l;
                  mm := !mm lsr 1
                end
              done
            end)
          pids);
    continue_ := !ran || st.i_touched <> []
  done

(* Lane-mask scans skip empty bytes: once most lanes have retired, the
   surviving bits are sparse across the 63 positions and walking them
   one at a time is the dominant cost of the scan. *)
let iter_lanes mask f =
  let l = ref 0 in
  let mm = ref mask in
  while !mm <> 0 do
    if !mm land 0xFF = 0 then begin
      l := !l + 8;
      mm := !mm lsr 8
    end
    else begin
      if !mm land 1 <> 0 then f !l;
      incr l;
      mm := !mm lsr 1
    end
  done

(* Per-lane transition-target overrides: the structural diff between the
   base FSM and the lane's mutated one. Anything but a retarget is a
   shape change this backend has no model for. *)
let overrides_of (d : design) mutated =
  let base = d.d_fsm in
  if mutated == base then []
  else begin
    let state_index = List.mapi (fun i (s : Fsm.state) -> (s.Fsm.sname, i)) base.Fsm.states in
    if List.length mutated.Fsm.states <> List.length base.Fsm.states then
      unsupported "mutated fsm %s changes the state set" base.Fsm.fsm_name;
    List.concat
      (List.map2
         (fun (s0 : Fsm.state) (s1 : Fsm.state) ->
           if
             s0.Fsm.sname <> s1.Fsm.sname
             || s0.Fsm.is_done <> s1.Fsm.is_done
             || s0.Fsm.settings <> s1.Fsm.settings
             || List.length s0.Fsm.transitions <> List.length s1.Fsm.transitions
           then
             unsupported "mutated fsm %s changes state %s structurally"
               base.Fsm.fsm_name s0.Fsm.sname;
           let si = List.assoc s0.Fsm.sname state_index in
           List.concat
             (List.mapi
                (fun ti ((tr0 : Fsm.transition), (tr1 : Fsm.transition)) ->
                  if not (Guard.equal tr0.Fsm.guard tr1.Fsm.guard) then
                    unsupported "mutated fsm %s changes a guard" base.Fsm.fsm_name;
                  if tr0.Fsm.target = tr1.Fsm.target then []
                  else
                    match List.assoc_opt tr1.Fsm.target state_index with
                    | Some t -> [ (si, ti, t) ]
                    | None ->
                        unsupported "mutated fsm %s retargets to unknown state %s"
                          base.Fsm.fsm_name tr1.Fsm.target)
                (List.combine s0.Fsm.transitions s1.Fsm.transitions)))
         base.Fsm.states mutated.Fsm.states)
  end

let instantiate (d : design) specs nl running =
  let ncells = Array.length d.d_widths in
  let cells =
    Array.init ncells (fun i ->
        {
          ic_vals = Array.make nl 0;
          ic_pend = Array.make nl 0;
          ic_staged = 0;
          ic_cmask = 0;
          ic_corrupt = Array.make nl None;
          ic_succs = d.d_succs.(i);
        })
  in
  let mems =
    Array.map (fun name -> Array.init nl (fun l -> specs.(l).memories name)) d.d_mems
  in
  let st =
    {
      i_d = d;
      i_cells = cells;
      i_mems = mems;
      i_dirty = Array.make (Array.length d.d_comb) 0;
      i_dirty_pids = [];
      i_touched = [];
      i_state = Array.make nl d.d_initial;
      i_over = Array.make nl [];
      i_stop = Array.make nl false;
      i_entered_done = Array.make nl false;
      i_checks = Array.make nl 0;
      i_running = running;
    }
  in
  iter_lanes running (fun l ->
      let spec = specs.(l) in
      (* Register initial values precede fault installation, as the
         elaboration forces precede [corrupt_signal]. *)
      Array.iter (fun (q, v) -> cells.(q).ic_vals.(l) <- v) d.d_reg_inits;
      List.iter
        (fun (cfg, port, fn) ->
          let applies = match cfg with None -> true | Some c -> c = d.d_cfg in
          if applies then
            match Hashtbl.find_opt d.d_cell_index port with
            | Some ci when ci < d.d_n_ports ->
                let w = d.d_widths.(ci) in
                let f v =
                  let r = fn (Bitvec.create ~width:w v) in
                  if Bitvec.width r <> w then
                    invalid_arg
                      (Printf.sprintf "fastsim: corruption on %s changed width" port)
                  else Bitvec.to_int r
                in
                let c = cells.(ci) in
                c.ic_corrupt.(l) <- Some f;
                c.ic_cmask <- c.ic_cmask lor (1 lsl l);
                (* The fault holds from power-on: rewrite the current
                   value too, as [Engine.corrupt_signal] does. *)
                c.ic_vals.(l) <- f c.ic_vals.(l)
            | Some _ | None -> ())
        spec.injections;
      st.i_over.(l) <- overrides_of d (spec.mutate_fsm d.d_fsm));
  st

(* A full complement of 63 lanes uses every bit of the OCaml int,
   including the sign bit — the mask is [-1], not [max_int] (which would
   silently drop lane 62 from the run). Masks are only ever tested with
   [land]/[lor]/[<> 0], so a negative mask is safe throughout. *)
let all_mask nl = if nl >= max_lanes then -1 else (1 lsl nl) - 1

let run ?(max_cycles = 10_000_000) ?(slice_cycles = max_int) ?(check = fun () -> false)
    t specs =
  let nl = Array.length specs in
  if nl = 0 then [||]
  else begin
    if nl > max_lanes then
      invalid_arg (Printf.sprintf "Fastsim.run: %d lanes exceed %d" nl max_lanes);
    if slice_cycles < 1 then invalid_arg "Fastsim.run: slice_cycles must be >= 1";
    let total_cycles = Array.make nl 0 in
    let checks = Array.make nl 0 in
    let completed = Array.make nl true in
    let interrupted = Array.make nl false in
    let alive = ref (all_mask nl) in
    let n_configs = Array.length t.configs in
    let ci = ref 0 in
    while !ci < n_configs && !alive <> 0 do
      let d = t.configs.(!ci) in
      incr ci;
      if check () then begin
        (* Budget fired before this configuration began — every still-
           running lane stops here, as the interpreter's pre-slice check
           would stop it. *)
        iter_lanes !alive (fun l ->
            interrupted.(l) <- true;
            completed.(l) <- false);
        alive := 0
      end
      else begin
        let st = instantiate d specs nl !alive in
        let entered = !alive in
        let cfg_cycles = Array.make nl 0 in
        let cfg_completed = Array.make nl false in
        let cycles = ref 0 in
        let freeze l =
          st.i_running <- st.i_running land lnot (1 lsl l);
          cfg_cycles.(l) <- !cycles;
          cfg_completed.(l) <- d.d_states.(st.i_state.(l)).st_done
        in
        (* Elaboration settle: every process runs once, in pid order. *)
        let lanes = st.i_running in
        Array.iteri (fun pid _ -> st.i_dirty.(pid) <- lanes) st.i_d.d_comb;
        st.i_dirty_pids <- List.init (Array.length st.i_d.d_comb) Fun.id;
        settle st;
        iter_lanes st.i_running (fun l -> if st.i_stop.(l) then freeze l);
        let running_loop = ref true in
        let until_check = ref slice_cycles in
        while !running_loop && st.i_running <> 0 && !cycles < max_cycles do
          incr cycles;
          (* Rising edge: clocked processes in document order, the FSM
             step last — the event engine's pid order for this delta. *)
          (* Lanes are independent simulations, so the delta can run
             lane-major: per-lane the descriptors stay in pid order, and
             one mask scan covers the whole edge. *)
          let run_mask = st.i_running in
          let edges = d.d_edge in
          let ne = Array.length edges in
          let l = ref 0 in
          let mm = ref run_mask in
          while !mm <> 0 do
            if !mm land 0xFF = 0 then begin
              l := !l + 8;
              mm := !mm lsr 8
            end
            else begin
              if !mm land 1 <> 0 then begin
                let l = !l in
                for k = 0 to ne - 1 do
                  eval_edge st (Array.unsafe_get edges k) l
                done;
                fsm_step st l
              end;
              incr l;
              mm := !mm lsr 1
            end
          done;
          settle st;
          iter_lanes st.i_running (fun l ->
              if st.i_stop.(l) || st.i_entered_done.(l) then freeze l);
          decr until_check;
          if st.i_running <> 0 && !until_check = 0 then begin
            until_check := slice_cycles;
            if check () then begin
            iter_lanes st.i_running (fun l ->
                  interrupted.(l) <- true;
                  freeze l;
                  cfg_completed.(l) <- false);
              running_loop := false
            end
          end
        done;
        (* Lanes still running exhausted the cycle budget. *)
        iter_lanes st.i_running (fun l -> freeze l);
        let next_alive = ref 0 in
        iter_lanes entered (fun l ->
            total_cycles.(l) <- total_cycles.(l) + cfg_cycles.(l);
            checks.(l) <- checks.(l) + st.i_checks.(l);
            if cfg_completed.(l) && not interrupted.(l) then
              next_alive := !next_alive lor (1 lsl l)
            else completed.(l) <- false);
        alive := !next_alive
      end
    done;
    (* Lanes alive past the last configuration completed the whole RTG. *)
    Array.init nl (fun l ->
        {
          completed = completed.(l);
          total_cycles = total_cycles.(l);
          checks = checks.(l);
          interrupted = interrupted.(l);
        })
  end
