module Ast = Lang.Ast
module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind
module Et = Ec.Term

type pass = Optimize_pass | Share_pass | Fold_pass

let pass_name = function
  | Optimize_pass -> "optimize"
  | Share_pass -> "share"
  | Fold_pass -> "fold"

type cert =
  | Proved
  | Refuted of { witness : string }
  | Inconclusive of { bound : string }

type report = {
  partition : string;
  pass : pass;
  cert : cert;
  seconds : float;
}

let to_diag r =
  let loc =
    Printf.sprintf "configuration %s / pass %s" r.partition (pass_name r.pass)
  in
  match r.cert with
  | Proved ->
      (* No wall time in the message: the deep-lint report is snapshotted
         as a golden file; timings live in the bench schema instead. *)
      Diag.note ~code:"TV003" ~loc
        "translation proved: pass output equivalent to its input for \
         every input"
  | Refuted { witness } ->
      Diag.error ~code:"TV001" ~loc
        ~hint:
          "the pass output is not equivalent to its input — a compiler \
           defect, not a property of the source program"
        "translation refuted: %s" witness
  | Inconclusive { bound } ->
      Diag.warning ~code:"TV002" ~loc
        ~hint:"raise the validation bounds to retry with more budget"
        "equivalence undecided: %s exceeded" bound

type bounds = {
  max_pairs : int;
  max_nodes : int;
  samples : int;
  max_conflicts : int;
}

let default_bounds =
  { max_pairs = 20_000; max_nodes = 200_000; samples = 17;
    max_conflicts = 100_000 }

exception Refute of string
exception Bound of string

(* ------------------------------------------------------------------ *)
(* Equivalence primitives                                               *)

(* Both the source expressions and the hardware cones are rebuilt as
   {!Ec.Term}s — normalizing, hash-consed — and every semantic
   comparison goes through the staged pipeline of {!Ec.decide}:
   structural, sampling as a counterexample pre-filter, then
   bit-blasted SAT; a verdict is a proof ([Proved]) or a replayed
   concrete witness. *)

(* [Some b] when the 1-bit term is proved to be the constant [b] — the
   license to follow a branch the pass folded away. [unknown] collects
   solver give-ups so the caller can turn a failed search into
   [Inconclusive] instead of [Refuted]. *)
let term_const_bool ~bounds ~unknown t =
  let decide v =
    Ec.decide ~samples:bounds.samples ~max_conflicts:bounds.max_conflicts t
      (Et.const ~width:1 (if v then 1 else 0))
  in
  match decide true with
  | Ec.Proved _ -> Some true
  | Ec.Refuted _ -> (
      match decide false with
      | Ec.Proved _ -> Some false
      | Ec.Refuted _ -> None
      | Ec.Unknown r ->
          unknown := Some r;
          None)
  | Ec.Unknown r ->
      unknown := Some r;
      None

(* ------------------------------------------------------------------ *)
(* Pure source expressions as terms                                     *)

let term_of_expr ~width name_of e =
  let rec go = function
    | Ast.Int n -> Et.const ~width n
    | Ast.Var v -> Et.var ~width (name_of v)
    | Ast.Mem_read _ -> invalid_arg "Tv: expression not pure (lowering bug)"
    | Ast.Binop (op, a, b) -> binop op (go a) (go b)
    | Ast.Unop (Ast.Neg, a) -> Et.app Et.Neg ~width [ go a ]
    | Ast.Unop (Ast.Bnot, a) -> Et.app Et.Not ~width [ go a ]
  and binop op a b =
    let ap o = Et.app o ~width [ a; b ] in
    match op with
    | Ast.Add -> ap Et.Add
    | Ast.Sub -> Et.app Et.Add ~width [ a; Et.app Et.Neg ~width [ b ] ]
    | Ast.Mul -> ap Et.Mul
    | Ast.Div -> ap Et.Divs
    | Ast.Rem -> ap Et.Rems
    | Ast.Band -> ap Et.And
    | Ast.Bor -> ap Et.Or
    | Ast.Bxor -> ap Et.Xor
    | Ast.Shl -> ap Et.Shl
    | Ast.Shra -> ap Et.Shra
    | Ast.Shrl -> ap Et.Shrl
  in
  Et.Stats.time `Normalize (fun () -> go e)

let term_of_cond ~width name_of c =
  let rec go = function
    | Ast.Cmp (op, a, b) ->
        let ta = term_of_expr ~width name_of a
        and tb = term_of_expr ~width name_of b in
        let o =
          (* Source comparisons are signed, like the interpreter. *)
          match op with
          | Ast.Eq -> Et.Eq
          | Ast.Ne -> Et.Ne
          | Ast.Lt -> Et.Lts
          | Ast.Le -> Et.Les
          | Ast.Gt -> Et.Gts
          | Ast.Ge -> Et.Ges
        in
        Et.app o ~width:1 [ ta; tb ]
    | Ast.Cand (a, b) -> Et.app Et.And ~width:1 [ go a; go b ]
    | Ast.Cor (a, b) -> Et.app Et.Or ~width:1 [ go a; go b ]
    | Ast.Cnot a -> Et.app Et.Not ~width:1 [ go a ]
  in
  Et.Stats.time `Normalize (fun () -> go c)

(* ------------------------------------------------------------------ *)
(* Source-level validation: simulation-relation search                  *)

type event =
  | Eassign of string * Ast.expr
  | Eload of string * string * Ast.expr
  | Estore of string * Ast.expr * Ast.expr
  | Echeck of Ast.cond

type term = Tjump of int | Tbranch of Ast.cond * int * int | Thalt
type block = { events : event list; term : term }
type graph = { blocks : block array; entry : int }

let is_temp name = String.length name > 0 && name.[0] = '$'

(* A temporary map entry of [Skipped] marks a load the pass deleted: the
   temporary's value samples as an unconstrained fresh value, which is
   sound because the pass only deletes a load when the loaded value
   cannot reach an observable anymore (e.g. [m[e] * 0] rewritten to 0). *)
type tbind = Mapped of string | Skipped

let rec expr_to_string = function
  | Ast.Int n -> string_of_int n
  | Ast.Var v -> v
  | Ast.Mem_read (m, e) -> Printf.sprintf "%s[%s]" m (expr_to_string e)
  | Ast.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string a) (Ast.binop_to_string op)
        (expr_to_string b)
  | Ast.Unop (op, a) ->
      Printf.sprintf "(%s%s)" (Ast.unop_to_string op) (expr_to_string a)

let rec cond_to_string = function
  | Ast.Cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string a) (Ast.cmpop_to_string op)
        (expr_to_string b)
  | Ast.Cand (a, b) ->
      Printf.sprintf "(%s && %s)" (cond_to_string a) (cond_to_string b)
  | Ast.Cor (a, b) ->
      Printf.sprintf "(%s || %s)" (cond_to_string a) (cond_to_string b)
  | Ast.Cnot a -> Printf.sprintf "(!%s)" (cond_to_string a)

let event_to_string = function
  | Eassign (v, e) -> Printf.sprintf "%s = %s" v (expr_to_string e)
  | Eload (v, m, a) -> Printf.sprintf "%s = %s[%s]" v m (expr_to_string a)
  | Estore (m, a, x) ->
      Printf.sprintf "%s[%s] = %s" m (expr_to_string a) (expr_to_string x)
  | Echeck c -> Printf.sprintf "assert %s" (cond_to_string c)

let validate_source_in ~bounds ~width ~pre ~post () =
  let unknown = ref None in
  let note_unknown r = if !unknown = None then unknown := Some r in
  (* Naming: source variables share their name across the two sides;
     pre-side temporaries are renamed through the map, and a skipped
     (deleted-load) temporary is an unconstrained free value. *)
  let name_post name = "v:" ^ name in
  let name_pre tmap name =
    if is_temp name then
      match List.assoc_opt name tmap with
      | Some (Mapped post_name) -> "v:" ^ post_name
      | Some Skipped | None -> "free:" ^ name
    else "v:" ^ name
  in
  let equiv_term t_pre t_post =
    match
      Ec.decide ~samples:bounds.samples ~max_conflicts:bounds.max_conflicts
        t_pre t_post
    with
    | Ec.Proved _ -> true
    | Ec.Refuted _ -> false
    | Ec.Unknown r ->
        note_unknown r;
        false
  in
  let equiv_expr tmap e_pre e_post =
    equiv_term
      (term_of_expr ~width (name_pre tmap) e_pre)
      (term_of_expr ~width name_post e_post)
  in
  let equiv_cond tmap c_pre c_post =
    equiv_term
      (term_of_cond ~width (name_pre tmap) c_pre)
      (term_of_cond ~width name_post c_post)
  in
  let cond_const tmap c =
    let unk = ref None in
    let r =
      term_const_bool ~bounds ~unknown:unk
        (term_of_cond ~width (name_pre tmap) c)
    in
    (match !unk with Some u -> note_unknown u | None -> ());
    r
  in
  let norm (g : graph) (b, i) =
    (* Fall through empty suffixes and jumps; a jump-only cycle cannot
       occur (every loop carries a branch), but stay defensive. *)
    let rec go steps (b, i) =
      if steps > Array.length g.blocks then (b, i)
      else
        let blk = g.blocks.(b) in
        if i >= List.length blk.events then
          match blk.term with Tjump t -> go (steps + 1) (t, 0) | _ -> (b, i)
        else (b, i)
    in
    go 0 (b, i)
  in
  let at (g : graph) (b, i) =
    let blk = g.blocks.(b) in
    let evs = blk.events in
    if i < List.length evs then `Event (List.nth evs i) else `Term blk.term
  in
  let pairs = ref 0 in
  let deepest = ref (-1, "the entry positions do not correspond") in
  let fail depth msg =
    if depth > fst !deepest then deepest := (depth, msg);
    false
  in
  let proven : (int * int * (int * int) * (string * tbind) list, unit) Hashtbl.t
      =
    Hashtbl.create 256
  in
  let assumed = Hashtbl.create 64 in
  let pos_desc side (b, i) = Printf.sprintf "%s b%d[%d]" side b i in
  let rec sim depth ppre ppost tmap =
    let ppre = norm pre ppre and ppost = norm post ppost in
    let key = (fst ppre, snd ppre, ppost, tmap) in
    if Hashtbl.mem proven key || Hashtbl.mem assumed key then true
    else begin
      incr pairs;
      if !pairs > bounds.max_pairs then
        raise
          (Bound
             (Printf.sprintf "max_pairs=%d at %s / %s" bounds.max_pairs
                (pos_desc "pre" ppre) (pos_desc "post" ppost)));
      Hashtbl.replace assumed key ();
      let ok = attempt depth ppre ppost tmap in
      Hashtbl.remove assumed key;
      if ok then Hashtbl.replace proven key ();
      ok
    end
  and advance (b, i) = (b, i + 1)
  and attempt depth ppre ppost tmap =
    match (at pre ppre, at post ppost) with
    | `Event e1, `Event e2 when event_match depth ppre ppost tmap e1 e2 ->
        true
    | `Event e1, _ -> skip_pre depth ppre ppost tmap e1
    | `Term t1, `Term t2 -> term_match depth ppre ppost tmap t1 t2
    | `Term t1, `Event e2 ->
        follow_const_branch depth ppre ppost tmap t1
        || fail depth
             (Printf.sprintf "%s ends its block but %s still has \"%s\""
                (pos_desc "pre" ppre) (pos_desc "post" ppost)
                (event_to_string e2))
  and event_match depth ppre ppost tmap e1 e2 =
    let next tmap = sim (depth + 1) (advance ppre) (advance ppost) tmap in
    let mismatch what =
      fail depth
        (Printf.sprintf "%s at %s: \"%s\" does not match \"%s\" at %s" what
           (pos_desc "pre" ppre) (event_to_string e1) (event_to_string e2)
           (pos_desc "post" ppost))
    in
    match (e1, e2) with
    | Eassign (v1, x1), Eassign (v2, x2) ->
        if v1 <> v2 then mismatch "assignment target"
        else if not (equiv_expr tmap x1 x2) then mismatch "assigned value"
        else next tmap
    | Eload (v1, m1, a1), Eload (v2, m2, a2) ->
        if m1 <> m2 then mismatch "loaded memory"
        else if not (equiv_expr tmap a1 a2) then mismatch "load address"
        else if is_temp v1 && is_temp v2 then
          next ((v1, Mapped v2) :: List.remove_assoc v1 tmap)
        else if v1 = v2 then next tmap
        else mismatch "load target"
    | Estore (m1, a1, x1), Estore (m2, a2, x2) ->
        if m1 <> m2 then mismatch "stored memory"
        else if not (equiv_expr tmap a1 a2) then mismatch "store address"
        else if not (equiv_expr tmap x1 x2) then mismatch "stored value"
        else next tmap
    | Echeck c1, Echeck c2 ->
        if equiv_cond tmap c1 c2 then next tmap else mismatch "checked condition"
    | _, _ -> mismatch "event kind"
  and skip_pre depth ppre ppost tmap e1 =
    (* The pass deleted a pre-side event: a memory read whose value
       became irrelevant (the temporary is marked skipped — its uses
       sample free), or a check it proved constantly true. *)
    match e1 with
    | Eload (v, _, _) when is_temp v ->
        sim (depth + 1) (advance ppre) ppost
          ((v, Skipped) :: List.remove_assoc v tmap)
        || fail depth
             (Printf.sprintf "deleting the load \"%s\" at %s does not help"
                (event_to_string e1) (pos_desc "pre" ppre))
    | Echeck c when cond_const tmap c = Some true ->
        sim (depth + 1) (advance ppre) ppost tmap
        || fail depth
             (Printf.sprintf
                "dropping the always-true check at %s does not help"
                (pos_desc "pre" ppre))
    | _ ->
        fail depth
          (Printf.sprintf "no pass rewrite explains \"%s\" at %s"
             (event_to_string e1) (pos_desc "pre" ppre))
  and follow_const_branch depth _ppre ppost tmap t1 =
    match t1 with
    | Tbranch (c, t, e) -> (
        match cond_const tmap c with
        | Some true -> sim (depth + 1) (t, 0) ppost tmap
        | Some false -> sim (depth + 1) (e, 0) ppost tmap
        | None -> false)
    | _ -> false
  and term_match depth ppre ppost tmap t1 t2 =
    match (t1, t2) with
    | Thalt, Thalt -> true
    | Tbranch (c1, t1', e1'), Tbranch (c2, t2', e2') ->
        if not (equiv_cond tmap c1 c2) then
          follow_const_branch depth ppre ppost tmap t1
          || fail depth
               (Printf.sprintf
                  "branch conditions at %s (\"%s\") and %s (\"%s\") differ"
                  (pos_desc "pre" ppre) (cond_to_string c1)
                  (pos_desc "post" ppost) (cond_to_string c2))
        else
          (sim (depth + 1) (t1', 0) (t2', 0) tmap
          && sim (depth + 1) (e1', 0) (e2', 0) tmap)
          || follow_const_branch depth ppre ppost tmap t1
    | Tbranch _, _ ->
        follow_const_branch depth ppre ppost tmap t1
        || fail depth
             (Printf.sprintf "%s branches where %s does not"
                (pos_desc "pre" ppre) (pos_desc "post" ppost))
    | _, _ ->
        fail depth
          (Printf.sprintf "terminators at %s and %s differ"
             (pos_desc "pre" ppre) (pos_desc "post" ppost))
  in
  if sim 0 (pre.entry, 0) (post.entry, 0) [] then Proved
  else
    match !unknown with
    | Some r ->
        (* The search failed while at least one equivalence query ran
           out of solver budget: undecided, not a counterexample. *)
        Inconclusive
          {
            bound =
              Printf.sprintf
                "%s while deciding a source equivalence (%d solver \
                 conflicts)"
                r.Ec.cause r.Ec.conflicts;
          }
    | None -> Refuted { witness = snd !deepest }

let validate_source ?(bounds = default_bounds) ~width ~pre ~post () =
  Et.set_node_limit (Some bounds.max_nodes);
  Fun.protect
    ~finally:(fun () -> Et.set_node_limit None)
    (fun () ->
      try validate_source_in ~bounds ~width ~pre ~post ()
      with
      | Bound b -> Inconclusive { bound = b }
      | Et.Node_limit n ->
          Inconclusive
            {
              bound =
                Printf.sprintf "max_nodes=%d (normalization, %d term nodes)"
                  bounds.max_nodes n;
            })

(* ------------------------------------------------------------------ *)
(* Hardware-level validation: symbolic cones on the FSMD product        *)

(* A symbolic cone: the expression a signal computes in one FSM state,
   with control inputs resolved to that state's constant settings and
   mux selects followed when constant. Functional-unit instance names
   are erased — a pooled shared unit and a dedicated unit computing the
   same function extract the same cone — while register and memory
   {e names} are kept: they are the simulation relation's anchors. *)
type sexp =
  | Sconst of int * int  (** width, value *)
  | Sreg of string * int
      (** reg/counter q — the stored value at state entry *)
  | Sread of string * int * sexp  (** memory name, width, address cone *)
  | Sapp of Opkind.t * int * sexp list  (** kind, width, argument cones *)

let umax width = if width >= 62 then max_int else (1 lsl width) - 1

type hw_ctx = {
  e : Elab.t;
  fsm : Fsm.t;
  st : Fsm.state;
  memo : (int * string, sexp) Hashtbl.t;  (** (op id, input port) -> cone *)
  nodes : int ref;
  max_nodes : int;
}

let params (op : Elab.op) = op.Elab.spec.Opspec.params

(* The cone feeding an operator's input port. *)
let rec cone ctx (op : Elab.op) port =
  let key = (op.Elab.id, port) in
  match Hashtbl.find_opt ctx.memo key with
  | Some s -> s
  | None ->
      let s = cone_uncached ctx op port in
      Hashtbl.replace ctx.memo key s;
      s

and budget ctx =
  incr ctx.nodes;
  if !(ctx.nodes) > ctx.max_nodes then
    raise (Bound (Printf.sprintf "max_nodes=%d" ctx.max_nodes))

and cone_uncached ctx op port =
  budget ctx;
  match Elab.driver op port with
  | Elab.Ctl c ->
      Sconst (c.Dp.ctl_width, Fsm.output_in_state ctx.fsm ctx.st c.Dp.ctl_name)
  | Elab.Op_out (src, _) -> op_cone ctx src

and op_cone ctx (op : Elab.op) =
  let sink = cone ctx op and width = op.Elab.width in
  match op.Elab.kind with
  | Const -> Sconst (width, (params op).value land umax width)
  | Reg | Counter -> Sreg (op.Elab.name, width)
  | Sram | Rom -> Sread ((params op).memory, width, sink "addr")
  | Mux -> (
      let n = (params op).inputs in
      match sink "sel" with
      | Sconst (_, v) -> sink (Printf.sprintf "in%d" (min v (n - 1)))
      | sel ->
          let ins = List.init n (fun i -> sink (Printf.sprintf "in%d" i)) in
          Sapp (Mux, width, sel :: ins))
  | (Bin _ | Cmp _ | Un _ | Zext | Sext | Probe | Check | Stop) as kind ->
      let args =
        List.map (fun ((p : Opspec.port), _) -> sink p.Opspec.port_name) op.Elab.inputs
      in
      Sapp (kind, width, args)

(* Cones are rebuilt as {!Ec.Term}s. The operator dispatch and the
   register/memory name prefixes match the legacy evaluator
   exactly, so a sampled world means the same values it always has; the
   normalizing constructors additionally collapse most semantically
   equal cones to the same node on the way in. *)
let term_of_sexp s =
  let rec go = function
    | Sconst (w, v) -> Et.const ~width:w v
    | Sreg (name, w) -> Et.var ~width:w ("r:" ^ name)
    | Sread (m, w, a) -> Et.read ~width:w m (go a)
    | Sapp (kind, w, args) -> (
        match (Et.op_of_kind kind, kind, args) with
        | Some op, _, _ -> Et.app op ~width:w (List.map go args)
        | None, Un Pass, [ a ] -> go a
        | None, Bin Sub, [ a; b ] ->
            Et.app Et.Add ~width:w [ go a; Et.app Et.Neg ~width:w [ go b ] ]
        | None, _, _ ->
            raise
              (Refute
                 (Printf.sprintf "cone has unknown kind %S" (Opkind.to_string kind))))
  in
  Et.Stats.time `Normalize (fun () -> go s)

let is_zero_const = function Sconst (_, 0) -> true | _ -> false

(* Semantic cone comparison. A disagreement raises [Refute] with the
   concrete replayed witness; a solver give-up raises [Bound] naming
   the budget, the element and the conflicts spent ([validate_hardware]
   adds the pass and the cone-node count). *)
let check_equiv ~bounds ~state ~what r c =
  let tr = term_of_sexp r and tc = term_of_sexp c in
  let refute w =
    raise
      (Refute
         (Printf.sprintf "state %s: %s disagrees: %s" state what
            (Ec.witness_to_string w)))
  in
  match
    Ec.decide ~samples:bounds.samples ~max_conflicts:bounds.max_conflicts tr
      tc
  with
  | Ec.Proved _ -> ()
  | Ec.Refuted w -> refute w
  | Ec.Unknown re ->
      raise
        (Bound
           (Printf.sprintf "%s deciding %s at state %s (%d solver conflicts)"
              re.Ec.cause what state re.Ec.conflicts))

(* ------------------------------------------------------------------ *)
(* Per-state effect comparison (shared by lockstep and stuttering)      *)

type side = { dp : Dp.t; fsm : Fsm.t; e : Elab.t }

let make_side (dp, fsm) = { dp; fsm; e = Elab.of_datapath dp }

let state_ctx ~nodes ~max_nodes side st =
  { e = side.e; fsm = side.fsm; st; memo = Hashtbl.create 64; nodes; max_nodes }

let ops_of e kind =
  List.filter (fun (o : Elab.op) -> o.Elab.kind = kind) (Elab.ops e)

let reg_init (op : Elab.op) = Option.value (params op).init ~default:0
let mem_param (op : Elab.op) = (params op).memory

(* Pair up the architectural elements of the two datapaths. Registers,
   counters, checks, stops and probes keep their ids across the hardware
   passes; SRAM ports are matched by the memory they address (the port
   instance itself may be renamed or re-pooled). *)
let match_by ~state ~what key ref_ops cand_ops f =
  List.iter
    (fun ro ->
      match List.find_opt (fun co -> key co = key ro) cand_ops with
      | Some co -> f ro co
      | None ->
          raise
            (Refute
               (Printf.sprintf "state %s: %s %s has no candidate counterpart"
                  state what (key ro))))
    ref_ops;
  List.iter
    (fun co ->
      if not (List.exists (fun ro -> key ro = key co) ref_ops) then
        raise
          (Refute
             (Printf.sprintf "state %s: %s %s exists only in the candidate"
                state what (key co))))
    cand_ops

let compare_effects ~bounds ~state (rc : hw_ctx) (cc : hw_ctx) =
  let chk = check_equiv ~bounds ~state in
  let cone_r = cone rc and cone_c = cone cc in
  let name (o : Elab.op) = o.Elab.name in
  let pair = match_by ~state in
  pair ~what:"register" name (ops_of rc.e Reg) (ops_of cc.e Reg) (fun ro co ->
      if reg_init ro <> reg_init co then
        raise
          (Refute
             (Printf.sprintf "register %s: reset values differ (%d vs %d)"
                ro.Elab.name (reg_init ro) (reg_init co)));
      let ren = cone_r ro "en" and cen = cone_c co "en" in
      let what p = Printf.sprintf "register %s %s" ro.Elab.name p in
      chk ~what:(what "enable") ren cen;
      (* When both sides provably keep the register, the data input is
         unobservable — shared datapaths legitimately park their operand
         muxes on defaults there. *)
      if not (is_zero_const ren && is_zero_const cen) then
        chk ~what:(what "data") (cone_r ro "d") (cone_c co "d"));
  pair ~what:"counter" name (ops_of rc.e Counter) (ops_of cc.e Counter)
    (fun ro co ->
      let what p = Printf.sprintf "counter %s %s" ro.Elab.name p in
      chk ~what:(what "enable") (cone_r ro "en") (cone_c co "en");
      let rload = cone_r ro "load" and cload = cone_c co "load" in
      chk ~what:(what "load") rload cload;
      if not (is_zero_const rload && is_zero_const cload) then
        chk ~what:(what "data") (cone_r ro "d") (cone_c co "d"));
  pair ~what:"memory port" mem_param (ops_of rc.e Sram)
    (ops_of cc.e Sram) (fun ro co ->
      let m = mem_param ro in
      let what p = Printf.sprintf "memory %s %s" m p in
      let rwe = cone_r ro "we" and cwe = cone_c co "we" in
      chk ~what:(what "write enable") rwe cwe;
      if not (is_zero_const rwe && is_zero_const cwe) then begin
        chk ~what:(what "write address") (cone_r ro "addr") (cone_c co "addr");
        chk ~what:(what "write data") (cone_r ro "din") (cone_c co "din")
      end);
  pair ~what:"check" name (ops_of rc.e Check)
    (ops_of cc.e Check) (fun ro co ->
      if (params ro).value <> (params co).value then
        raise
          (Refute
             (Printf.sprintf "check %s: expected values differ" ro.Elab.name));
      let what p = Printf.sprintf "check %s %s" ro.Elab.name p in
      let ren = cone_r ro "en" and cen = cone_c co "en" in
      chk ~what:(what "enable") ren cen;
      if not (is_zero_const ren && is_zero_const cen) then
        chk ~what:(what "value") (cone_r ro "a") (cone_c co "a"));
  pair ~what:"stop" name (ops_of rc.e Stop)
    (ops_of cc.e Stop) (fun ro co ->
      chk
        ~what:(Printf.sprintf "stop %s enable" ro.Elab.name)
        (cone_r ro "en") (cone_c co "en"));
  pair ~what:"probe" name (ops_of rc.e Probe)
    (ops_of cc.e Probe) (fun ro co ->
      chk
        ~what:(Printf.sprintf "probe %s" ro.Elab.name)
        (cone_r ro "a") (cone_c co "a"))

let status_cone (ctx : hw_ctx) name =
  match
    List.find_opt (fun (s : Dp.status) -> s.Dp.st_name = name) (Elab.datapath ctx.e).Dp.statuses
  with
  | None ->
      raise (Refute (Printf.sprintf "guard references unknown status %S" name))
  | Some s -> op_cone ctx (Option.get (Elab.find ctx.e s.Dp.st_source.Dp.inst))

(* Transition comparison: same decision structure (guards compared as
   formulas over status names), same targets in the same priority order,
   and semantically equivalent status cones. [subst_ref] post-processes
   the reference cones — identity in lockstep, the fold witness's
   register substitution in stuttering. [rename] maps reference targets
   into the candidate's state space (identity except for fold). *)
let compare_transitions ~bounds ~state ?(subst_ref = fun s -> s)
    ?(rename = fun t -> t) rc cc (rs : Fsm.state) (cs : Fsm.state) =
  if List.length rs.Fsm.transitions <> List.length cs.Fsm.transitions then
    raise
      (Refute
         (Printf.sprintf "state %s: transition counts differ (%d vs %d)" state
            (List.length rs.Fsm.transitions)
            (List.length cs.Fsm.transitions)));
  List.iter2
    (fun (rt : Fsm.transition) (ct : Fsm.transition) ->
      if rename rt.Fsm.target <> ct.Fsm.target then
        raise
          (Refute
             (Printf.sprintf "state %s: transition targets differ (%s vs %s)"
                state rt.Fsm.target ct.Fsm.target));
      if not (Guard.equal rt.Fsm.guard ct.Fsm.guard) then
        raise
          (Refute
             (Printf.sprintf "state %s: guards differ (%S vs %S)" state
                (Guard.to_string rt.Fsm.guard)
                (Guard.to_string ct.Fsm.guard)));
      List.iter
        (fun sig_name ->
          check_equiv ~bounds ~state
            ~what:(Printf.sprintf "status %s (guard %S)" sig_name
                     (Guard.to_string rt.Fsm.guard))
            (subst_ref (status_cone rc sig_name))
            (status_cone cc sig_name))
        (Guard.signals rt.Fsm.guard))
    rs.Fsm.transitions cs.Fsm.transitions

(* ------------------------------------------------------------------ *)
(* Share pass: lockstep product                                         *)

let lockstep ~(bounds : bounds) ~nodes rside cside =
  if rside.fsm.Fsm.initial <> cside.fsm.Fsm.initial then
    raise
      (Refute
         (Printf.sprintf "initial states differ (%s vs %s)"
            rside.fsm.Fsm.initial cside.fsm.Fsm.initial));
  let names f = List.map (fun (s : Fsm.state) -> s.Fsm.sname) f.Fsm.states in
  if
    List.sort compare (names rside.fsm) <> List.sort compare (names cside.fsm)
  then raise (Refute "the pass changed the FSM state set");
  List.iter
    (fun (rs : Fsm.state) ->
      let cs =
        match Fsm.find_state cside.fsm rs.Fsm.sname with
        | Some s -> s
        | None -> assert false
      in
      if rs.Fsm.is_done <> cs.Fsm.is_done then
        raise
          (Refute (Printf.sprintf "state %s: done flags differ" rs.Fsm.sname));
      let rc = state_ctx ~nodes ~max_nodes:bounds.max_nodes rside rs
      and cc = state_ctx ~nodes ~max_nodes:bounds.max_nodes cside cs in
      compare_effects ~bounds ~state:rs.Fsm.sname rc cc;
      compare_transitions ~bounds ~state:rs.Fsm.sname rc cc rs cs)
    rside.fsm.Fsm.states

(* ------------------------------------------------------------------ *)
(* Fold pass: stuttering product with a state-map witness               *)

let seq_effects (ctx : hw_ctx) =
  (* (enable cone, substitution entry) of every architectural write in
     one state: the basis of both the effect-free check and the fold
     substitution. *)
  let regs =
    List.map
      (fun (o : Elab.op) -> (o, cone ctx o "en", `Reg))
      (ops_of ctx.e Reg)
  and counters =
    List.map
      (fun (o : Elab.op) -> (o, cone ctx o "en", `Counter))
      (ops_of ctx.e Counter)
  and srams =
    List.map
      (fun (o : Elab.op) -> (o, cone ctx o "we", `Sram))
      (ops_of ctx.e Sram)
  and checks =
    List.map
      (fun (o : Elab.op) -> (o, cone ctx o "en", `Check))
      (ops_of ctx.e Check)
  and stops =
    List.map
      (fun (o : Elab.op) -> (o, cone ctx o "en", `Stop))
      (ops_of ctx.e Stop)
  in
  regs @ counters @ srams @ checks @ stops

let assert_effect_free ctx state =
  List.iter
    (fun ((o : Elab.op), en, _) ->
      if not (is_zero_const en) then
        raise
          (Refute
             (Printf.sprintf
                "state %s was eliminated by the fold but arms %s %s there"
                state (Opkind.to_string o.Elab.kind) o.Elab.name)))
    (seq_effects ctx)

(* The fold witness: folded state F absorbs its successor X's branch
   decision. X's guards evaluate {e after} F's register writes commit,
   so the reference status cones must be rebased onto F's entry state by
   substituting every written register with the cone of the value it
   receives. Conditional writes (non-constant enables) and memory reads
   of a memory written in F have no sound rebase — refuted as an
   unsupported witness rather than silently accepted. *)
let fold_subst (ctx : hw_ctx) state =
  let sigma = Hashtbl.create 8 in
  let written_mems = ref [] in
  List.iter
    (fun ((o : Elab.op), en, cls) ->
      match cls with
      | `Check | `Stop -> ()
      | `Sram ->
          if not (is_zero_const en) then
            written_mems := mem_param o :: !written_mems
      | `Reg -> (
          match en with
          | Sconst (_, 0) -> ()
          | Sconst (_, _) ->
              Hashtbl.replace sigma o.Elab.name (cone ctx o "d")
          | _ ->
              raise
                (Refute
                   (Printf.sprintf
                      "state %s: register %s is conditionally written before \
                       a folded branch — no sound fold witness"
                      state o.Elab.name)))
      | `Counter -> (
          match en with
          | Sconst (_, 0) -> ()
          | Sconst (_, _) -> (
              match cone ctx o "load" with
              | Sconst (_, 0) ->
                  Hashtbl.replace sigma o.Elab.name
                    (Sapp
                       ( Bin Add,
                         o.Elab.width,
                         [ Sreg (o.Elab.name, o.Elab.width); Sconst (o.Elab.width, 1) ]
                       ))
              | Sconst (_, _) ->
                  Hashtbl.replace sigma o.Elab.name (cone ctx o "d")
              | _ ->
                  raise
                    (Refute
                       (Printf.sprintf
                          "state %s: counter %s load is not resolved before a \
                           folded branch — no sound fold witness"
                          state o.Elab.name)))
          | _ ->
              raise
                (Refute
                   (Printf.sprintf
                      "state %s: counter %s is conditionally stepped before a \
                       folded branch — no sound fold witness"
                      state o.Elab.name))))
    (seq_effects ctx);
  let rec apply = function
    | Sconst _ as s -> s
    | Sreg (id, _) as s -> (
        match Hashtbl.find_opt sigma id with Some d -> d | None -> s)
    | Sread (m, w, a) ->
        if List.mem m !written_mems then
          raise
            (Refute
               (Printf.sprintf
                  "state %s: a folded guard reads memory %s written in the \
                   same state — no sound fold witness"
                  state m))
        else Sread (m, w, apply a)
    | Sapp (kind, w, args) -> Sapp (kind, w, List.map apply args)
  in
  apply

let stutter ~(bounds : bounds) ~nodes rside cside =
  let ctx side st = state_ctx ~nodes ~max_nodes:bounds.max_nodes side st in
  if rside.fsm.Fsm.initial <> cside.fsm.Fsm.initial then
    raise (Refute "the fold moved the initial state");
  let consumed = Hashtbl.create 8 in
  List.iter
    (fun (fs : Fsm.state) ->
      match Fsm.find_state rside.fsm fs.Fsm.sname with
      | None ->
          raise
            (Refute
               (Printf.sprintf "state %s exists only in the folded machine"
                  fs.Fsm.sname))
      | Some us -> (
          if us.Fsm.is_done <> fs.Fsm.is_done then
            raise
              (Refute
                 (Printf.sprintf "state %s: done flags differ" fs.Fsm.sname));
          let rc = ctx rside us and cc = ctx cside fs in
          compare_effects ~bounds ~state:fs.Fsm.sname rc cc;
          match us.Fsm.transitions with
          | [ { Fsm.guard = Guard.True; target = x } ]
            when Fsm.find_state cside.fsm x = None -> (
              match Fsm.find_state rside.fsm x with
              | None ->
                  raise
                    (Refute
                       (Printf.sprintf
                          "state %s jumps to %s which neither machine defines"
                          us.Fsm.sname x))
              | Some xs ->
                  if xs.Fsm.is_done then
                    raise
                      (Refute
                         (Printf.sprintf
                            "the fold eliminated the done state %s" x));
                  let rcx = ctx rside xs in
                  assert_effect_free rcx x;
                  Hashtbl.replace consumed x ();
                  let subst_ref = fold_subst rc us.Fsm.sname in
                  compare_transitions ~bounds
                    ~state:
                      (Printf.sprintf "%s (absorbing %s)" fs.Fsm.sname x)
                    ~subst_ref rcx cc xs fs)
          | _ -> compare_transitions ~bounds ~state:fs.Fsm.sname rc cc us fs))
    cside.fsm.Fsm.states;
  List.iter
    (fun (us : Fsm.state) ->
      if
        Fsm.find_state cside.fsm us.Fsm.sname = None
        && not (Hashtbl.mem consumed us.Fsm.sname)
      then
        raise
          (Refute
             (Printf.sprintf
                "state %s was eliminated without a stuttering witness"
                us.Fsm.sname)))
    rside.fsm.Fsm.states

(* ------------------------------------------------------------------ *)
(* Invariant preservation                                               *)

let invariants_preserved ?cache ?memories rside cside =
  let run side =
    try Ok (Absint.analyze ?cache ?memories side.dp side.fsm)
    with Failure m -> Error m
  in
  (* A lost proof is never a counterexample: the abstract interpreter
     answers in may-warnings, and a pass may legitimately push a design
     outside the abstraction's precision (pooled selection muxes widen
     address cones, so a shared design can gain an AI002/AI004 finding
     the dedicated design was free of — the fuzzer found exactly that
     on its first certified campaign). Equivalence is then undecided at
     this abstraction, i.e. [Inconclusive]; only the cone comparisons,
     which exhibit concrete witnesses, may refute. *)
  match (run rside, run cside) with
  | Error _, _ ->
      (* The reference design is not analyzable (it would not pass the
         lint gate either); there is no invariant baseline to preserve. *)
      ()
  | Ok _, Error m ->
      raise
        (Bound
           (Printf.sprintf
              "invariant AI: the pass input is analyzable but the output \
               is not (%s)" m))
  | Ok ra, Ok ca ->
      let codes a =
        List.sort_uniq compare
          (List.filter_map
             (fun (d : Diag.t) ->
               if d.Diag.severity = Diag.Note then None else Some d.Diag.code)
             (Absint.diagnostics a))
      in
      let rcodes = codes ra in
      List.iter
        (fun c ->
          if not (List.mem c rcodes) then
            raise
              (Bound
                 (Printf.sprintf
                    "invariant %s: provable on the pass input but not \
                     re-established on the output (abstraction precision)"
                    c)))
        (codes ca);
      let unproved a =
        List.length
          (List.filter
             (fun (f : Absint.cycle_finding) ->
               match f.Absint.cycle_verdict with
               | Absint.Proved_acyclic -> false
               | Absint.Dynamic_cycle _ | Absint.Unresolved _ -> true)
             (Absint.cycle_findings a))
      in
      if unproved ca > unproved ra then
        raise
          (Bound
             "invariant AI007: a combinational-cycle proof on the pass \
              input has no counterpart on the output")

(* ------------------------------------------------------------------ *)

let validate_hardware ?(bounds = default_bounds) ?cache ?memories ~pass
    ~reference ~candidate () =
  let rside = make_side reference and cside = make_side candidate in
  let nodes = ref 0 in
  Et.set_node_limit (Some bounds.max_nodes);
  Fun.protect ~finally:(fun () -> Et.set_node_limit None) @@ fun () ->
  try
    (match pass with
    | Optimize_pass ->
        invalid_arg
          "Tv.validate_hardware: Optimize_pass is validated at source level"
    | Share_pass -> lockstep ~bounds ~nodes rside cside
    | Fold_pass -> stutter ~bounds ~nodes rside cside);
    invariants_preserved ?cache ?memories rside cside;
    Proved
  with
  | Refute witness -> Refuted { witness }
  | Bound bound ->
      Inconclusive
        {
          bound =
            Printf.sprintf "pass %s: %s (%d cone nodes extracted)"
              (pass_name pass) bound !nodes;
        }
  | Et.Node_limit n ->
      Inconclusive
        {
          bound =
            Printf.sprintf
              "pass %s: max_nodes=%d exhausted during normalization (%d term \
               nodes)"
              (pass_name pass) bounds.max_nodes n;
        }
  | Bitvec.Width_error m ->
      Refuted { witness = "width mismatch while evaluating cones: " ^ m }
