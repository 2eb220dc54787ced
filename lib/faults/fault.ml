module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Opspec = Operators.Opspec
module Compile = Compiler.Compile

(* --- deterministic PRNG (splitmix64) --------------------------------- *)

module Rng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Fault.Rng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let bool t = Int64.logand (next t) 1L = 1L

  let pick t = function
    | [] -> invalid_arg "Fault.Rng.pick: empty list"
    | xs -> List.nth xs (int t (List.length xs))
end

(* --- the fault model --------------------------------------------------- *)

type kind =
  | Stuck_at of { cfg : string; port : string; bit : int; value : bool }
  | Bit_flip of { cfg : string; port : string; bit : int }
  | Fsm_retarget of {
      fsm : string;
      state : string;
      index : int;
      target : string;
      original : string;
    }
  | Mem_corrupt of { mem : string; addr : int; xor : int }

type t = { id : int; kind : kind }

let fault_class f =
  match f.kind with
  | Stuck_at _ -> "stuck-at"
  | Bit_flip _ -> "bit-flip"
  | Fsm_retarget _ -> "fsm-retarget"
  | Mem_corrupt _ -> "mem-corrupt"

let all_classes = [ "stuck-at"; "bit-flip"; "fsm-retarget"; "mem-corrupt" ]

let describe f =
  match f.kind with
  | Stuck_at { cfg; port; bit; value } ->
      Printf.sprintf "#%d stuck-at-%d %s %s[%d]" f.id
        (if value then 1 else 0)
        cfg port bit
  | Bit_flip { cfg; port; bit } ->
      Printf.sprintf "#%d bit-flip %s %s[%d]" f.id cfg port bit
  | Fsm_retarget { fsm; state; index; target; original } ->
      Printf.sprintf "#%d fsm-retarget %s %s/next[%d] -> %s (was %s)" f.id fsm
        state index target original
  | Mem_corrupt { mem; addr; xor } ->
      Printf.sprintf "#%d mem-corrupt %s[%d] ^= 0x%x" f.id mem addr xor

(* --- applying faults --------------------------------------------------- *)

let perturbation f =
  match f.kind with
  | Stuck_at { cfg; port; bit; value } ->
      Some (cfg, port, Operators.Faulty.stuck_at ~bit ~value)
  | Bit_flip { cfg; port; bit } ->
      Some (cfg, port, Operators.Faulty.bit_flip ~bit)
  | Fsm_retarget _ | Mem_corrupt _ -> None

let retarget_fsm (fsm : Fsm.t) ~state ~index ~target =
  {
    fsm with
    Fsm.states =
      List.map
        (fun (s : Fsm.state) ->
          if s.Fsm.sname <> state then s
          else
            {
              s with
              Fsm.transitions =
                List.mapi
                  (fun i (tr : Fsm.transition) ->
                    if i = index then { tr with Fsm.target } else tr)
                  s.Fsm.transitions;
            })
        fsm.Fsm.states;
  }

let apply_to_fsm fsm f =
  match f.kind with
  | Fsm_retarget { fsm = name; state; index; target; _ }
    when name = fsm.Fsm.fsm_name ->
      retarget_fsm fsm ~state ~index ~target
  | _ -> fsm

let apply_to_memories lookup f =
  match f.kind with
  | Mem_corrupt { mem; addr; xor } ->
      Operators.Memory.corrupt (lookup mem) ~addr ~xor
  | _ -> ()

(* --- fault-site enumeration ------------------------------------------- *)

type site =
  | Port_site of { cfg : string; port : string; width : int }
  | Fsm_site of {
      fsm : Fsm.t;
      state : string;
      index : int;
      original : string;
      candidates : string list;
    }
  | Mem_site of { mem : string; size : int; width : int }

let cfg_of_partition (compiled : Compile.t) (p : Compile.partition) =
  let dp_name = p.Compile.datapath.Dp.dp_name in
  match
    List.find_opt
      (fun (c : Rtg.configuration) -> c.Rtg.datapath_ref = dp_name)
      compiled.Compile.rtg.Rtg.configurations
  with
  | Some c -> c.Rtg.cfg_name
  | None -> dp_name

let port_sites compiled =
  List.concat_map
    (fun (p : Compile.partition) ->
      let cfg = cfg_of_partition compiled p in
      List.concat_map
        (fun (op : Dp.operator) ->
          let spec = Dp.operator_spec op in
          (* Test aids observe the design; corrupting them would mutate the
             verifier, not the hardware under test. *)
          if Operators.Opkind.is_test_aid spec.Opspec.kind then []
          else
            List.filter_map
              (fun (port : Opspec.port) ->
                if port.Opspec.direction = Opspec.Out then
                  Some
                    (Port_site
                       {
                         cfg;
                         port = op.Dp.id ^ "." ^ port.Opspec.port_name;
                         width = port.Opspec.port_width;
                       })
                else None)
              spec.Opspec.ports)
        p.Compile.datapath.Dp.operators)
    compiled.Compile.partitions

let fsm_sites compiled =
  List.concat_map
    (fun (p : Compile.partition) ->
      let fsm = p.Compile.fsm in
      let state_names = List.map (fun (s : Fsm.state) -> s.Fsm.sname) fsm.Fsm.states in
      List.concat_map
        (fun (s : Fsm.state) ->
          List.mapi
            (fun i (tr : Fsm.transition) ->
              let candidates =
                (* Only keep retargets that still form a valid FSM (a done
                   state must stay reachable) — an invalid document would
                   be rejected before simulation, not verified. *)
                List.filter
                  (fun cand ->
                    cand <> tr.Fsm.target
                    && Fsm.check
                         (retarget_fsm fsm ~state:s.Fsm.sname ~index:i
                            ~target:cand)
                       = [])
                  state_names
              in
              Fsm_site
                {
                  fsm;
                  state = s.Fsm.sname;
                  index = i;
                  original = tr.Fsm.target;
                  candidates;
                })
            s.Fsm.transitions
          |> List.filter (function
               | Fsm_site { candidates = []; _ } -> false
               | _ -> true))
        fsm.Fsm.states)
    compiled.Compile.partitions

let mem_sites (compiled : Compile.t) =
  List.map
    (fun (m : Lang.Ast.mem_decl) ->
      Mem_site
        {
          mem = m.Lang.Ast.mem_name;
          size = m.Lang.Ast.mem_size;
          width = compiled.Compile.program.Lang.Ast.prog_width;
        })
    compiled.Compile.program.Lang.Ast.mems

let instantiate rng ~id site =
  let kind =
    match site with
    | Port_site { cfg; port; width } ->
        let bit = Rng.int rng width in
        if Rng.bool rng then Stuck_at { cfg; port; bit; value = Rng.bool rng }
        else Bit_flip { cfg; port; bit }
    | Fsm_site { fsm; state; index; original; candidates } ->
        Fsm_retarget
          {
            fsm = fsm.Fsm.fsm_name;
            state;
            index;
            target = Rng.pick rng candidates;
            original;
          }
    | Mem_site { mem; size; width } ->
        let addr = Rng.int rng size in
        let bit = Rng.int rng width in
        Mem_corrupt { mem; addr; xor = 1 lsl bit }
  in
  { id; kind }

let default_warn msg = Printf.eprintf "fault plan warning: %s\n%!" msg

(* [instantiate] draws a uniform bit / address, which requires a strictly
   positive range; a zero-width port or zero-sized memory is a site with
   nothing to corrupt. Such sites must be dropped here — with a warning,
   since a silently shrunken plan would misreport coverage — instead of
   letting [Rng.int] raise mid-plan. *)
let usable_site warn = function
  | Port_site { cfg; port; width } when width <= 0 ->
      warn
        (Printf.sprintf "skipping zero-width port site %s/%s" cfg port);
      false
  | Mem_site { mem; size; width } when size <= 0 || width <= 0 ->
      warn
        (Printf.sprintf "skipping degenerate memory site %s (size %d, width %d)"
           mem size width);
      false
  | Port_site _ | Mem_site _ | Fsm_site _ -> true

let plan ?(seed = 1) ?(warn = default_warn) ~n compiled =
  if n < 0 then invalid_arg "Fault.plan: negative fault count";
  let rng = Rng.create ~seed in
  let ports = List.filter (usable_site warn) (port_sites compiled) in
  let fsms = fsm_sites compiled in
  let mems = List.filter (usable_site warn) (mem_sites compiled) in
  if n > 0 then
    List.iter
      (fun (what, pool) ->
        if pool = [] then
          warn
            (Printf.sprintf
               "design offers no %s sites; that class is absent from the plan"
               what))
      [ ("port (stuck-at/bit-flip)", ports);
        ("fsm-retarget", fsms);
        ("mem-corrupt", mems) ];
  (* Round-robin over the fault classes so a small campaign still covers
     every class the design offers sites for. Stuck-at and bit-flip share
     the port sites; [instantiate] picks between them, so give ports two
     slots in the rotation. *)
  let pools = [ ports; ports; fsms; mems ] in
  let pools = List.filter (fun p -> p <> []) pools in
  if pools = [] then []
  else begin
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    let id = ref 0 in
    let attempts = ref 0 in
    let max_attempts = (n * 20) + 100 in
    let k = ref 0 in
    while !id < n && !attempts < max_attempts do
      incr attempts;
      let pool = List.nth pools (!k mod List.length pools) in
      incr k;
      let f = instantiate rng ~id:!id (Rng.pick rng pool) in
      (* Dedupe on everything but the id: re-running an identical mutant
         would inflate the campaign without testing anything new. *)
      let key = { f with id = 0 } in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := f :: !out;
        incr id
      end
    done;
    List.rev !out
  end
