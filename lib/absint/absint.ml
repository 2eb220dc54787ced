module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec
module Opkind = Operators.Opkind

(* Largest unsigned value of a width. Width 62 is Bitvec.max_width and
   its payload mask is exactly [max_int] (OCaml ints are 63-bit). *)
let umax width = if width >= 62 then max_int else (1 lsl width) - 1

(* Smallest [n] with [v < 2^n]. *)
let bits_needed v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  let rec bytes n v = if v lsr 8 = 0 then go n v else bytes (n + 8) (v lsr 8) in
  bytes 0 v

module Dom = struct
  type t = {
    width : int;
    lo : int;
    hi : int;
    kmask : int;
    kval : int;
    taint : string list;
  }

  (* Re-establish the invariants: interval within the width, known bits
     within the mask, the two components mutually tightened. Every
     constructor funnels through here, so transfer functions can build
     loose records and stay sound. *)
  let norm d =
    let m = umax d.width in
    let lo = max 0 (min d.lo m) and hi = max 0 (min d.hi m) in
    let lo, hi = if lo <= hi then (lo, hi) else (0, m) in
    let kmask = d.kmask land m in
    let kval = d.kval land kmask in
    (* Bits above the top bit of [hi] are zero in every member. *)
    let hb = bits_needed hi in
    let hz = if hb >= 62 then 0 else m land lnot ((1 lsl hb) - 1) in
    let kmask, kval =
      if kval land hz = 0 then (kmask lor hz, kval) else (kmask, kval)
    in
    (* The known bits bound the interval from both sides: unknown bits
       all-zero gives the minimum, all-one the maximum. *)
    let minv = kval and maxv = kval lor (m land lnot kmask) in
    let lo', hi' = (max lo minv, min hi maxv) in
    let lo, hi = if lo' <= hi' then (lo', hi') else (lo, hi) in
    let kmask, kval = if lo = hi then (m, lo) else (kmask, kval) in
    { d with lo; hi; kmask; kval }

  let top ~width =
    { width; lo = 0; hi = umax width; kmask = 0; kval = 0; taint = [] }

  let const ~width v =
    let v = v land umax width in
    { width; lo = v; hi = v; kmask = umax width; kval = v; taint = [] }

  (* Taint lists are kept sorted and duplicate-free, so the empty cases
     of the two functions below need no sort. *)
  let with_taint taint d =
    match taint with
    | [] | [ _ ] -> if taint == d.taint then d else { d with taint }
    | _ -> { d with taint = List.sort_uniq compare taint }

  let is_const d = if d.lo = d.hi then Some d.lo else None
  let contains d v = v >= d.lo && v <= d.hi && v land d.kmask = d.kval

  let union_taint a b =
    match (a, b) with
    | [], t | t, [] -> t
    | _ -> List.sort_uniq compare (a @ b)

  (* [d] carrying [taint], sharing [d] when it already does. *)
  let set_taint taint d = if d.taint == taint then d else { d with taint }

  let join a b =
    if a.width <> b.width then
      invalid_arg
        (Printf.sprintf "Absint.Dom.join: width %d <> %d" a.width b.width);
    let agree = lnot (a.kval lxor b.kval) in
    let kmask = a.kmask land b.kmask land agree in
    norm
      {
        width = a.width;
        lo = min a.lo b.lo;
        hi = max a.hi b.hi;
        kmask;
        kval = a.kval land kmask;
        taint = union_taint a.taint b.taint;
      }

  (* Interval widening: a bound still moving after the join budget jumps
     outward — to the next threshold in [thresholds] (sorted ascending,
     without duplicates) when one exists, else straight to the domain
     bound. Thresholds are harvested from the design's literal constants
     and memory sizes, so a loop counter climbing toward [i < 9] lands on
     9 instead of the domain maximum. Known bits and taint only descend /
     grow within finite lattices, so the plain join suffices there. *)
  let widen_sorted thresholds ~prev ~next =
    let j = join prev next in
    let m = umax prev.width in
    (* Number of thresholds [<= x]. *)
    let rank x =
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if thresholds.(mid) <= x then go (mid + 1) hi else go lo mid
      in
      go 0 (Array.length thresholds)
    in
    let lo =
      if j.lo < prev.lo then
        let r = rank j.lo in
        if r = 0 then 0 else max 0 thresholds.(r - 1)
      else j.lo
    in
    let hi =
      if j.hi > prev.hi then
        let r = rank (j.hi - 1) in
        if r = Array.length thresholds then m else min m thresholds.(r)
      else j.hi
    in
    norm { j with lo; hi }

  let widen ?(thresholds = []) ~prev ~next () =
    widen_sorted
      (Array.of_list (List.sort_uniq compare thresholds))
      ~prev ~next

  let equal a b =
    a.width = b.width && a.lo = b.lo && a.hi = b.hi && a.kmask = b.kmask
    && a.kval = b.kval && a.taint = b.taint

  (* [meet_interval d lo hi] restricts [d] to the unsigned interval
     [lo, hi]; [None] when the intersection is empty (the constraint is
     unsatisfiable for any value of [d]). *)
  let meet_interval d lo hi =
    let lo = max d.lo lo and hi = min d.hi hi in
    if lo > hi then None else Some (norm { d with lo; hi })

  type tri = Yes | No | Maybe

  let truth d =
    if d.hi = 0 then No else if d.lo > 0 || d.kval <> 0 then Yes else Maybe

  let of_bool3 = function
    | Some true -> const ~width:1 1
    | Some false -> const ~width:1 0
    | None -> top ~width:1

  (* Known-zero / known-one masks. *)
  let k0 d = d.kmask land lnot d.kval
  let k1 d = d.kmask land d.kval

  (* Logical right shift of a value whose sign bit is known 0 — shared
     by "shrl" and the non-negative "shra" case. *)
  let shrl_nonneg a b w m =
    match is_const b with
    | Some c when c >= w -> const ~width:w 0
    | Some c ->
        let kmask = (a.kmask lsr c) lor (m land lnot (m lsr c)) in
        norm
          {
            width = w;
            lo = a.lo lsr c;
            hi = a.hi lsr c;
            kmask;
            kval = a.kval lsr c;
            taint = [];
          }
    | None ->
        norm { width = w; lo = 0; hi = a.hi; kmask = 0; kval = 0; taint = [] }

  (* Both operands constant: fold through the catalogue's reference
     semantics, so constant folding agrees with execution by
     construction (including the division-by-zero convention). *)
  let fold f a b =
    match (is_const a, is_const b) with
    | Some x, Some y ->
        let w = a.width in
        let r = f (Bitvec.create ~width:w x) (Bitvec.create ~width:w y) in
        Some (const ~width:(Bitvec.width r) (Bitvec.to_int r))
    | _ -> None

  let binary (op : Opkind.binop) a b =
    let taint = union_taint a.taint b.taint in
    let w = a.width in
    let m = umax w in
    let iv lo hi = norm { width = w; lo; hi; kmask = 0; kval = 0; taint = [] } in
    let kb lo hi kmask kval =
      norm { width = w; lo; hi; kmask; kval; taint = [] }
    in
    let r =
      match fold (Opkind.bin_bitvec op) a b with
      | Some r -> r
      | None -> (
          match op with
          | Add ->
              if b.hi <= m - a.hi then iv (a.lo + b.lo) (a.hi + b.hi)
              else top ~width:w
          | Sub ->
              if a.lo >= b.hi then iv (a.lo - b.hi) (a.hi - b.lo)
              else top ~width:w
          | Mul ->
              if a.hi = 0 || b.hi = 0 then const ~width:w 0
              else if a.hi <= m / b.hi then iv (a.lo * b.lo) (a.hi * b.hi)
              else top ~width:w
          | Divu ->
              if b.lo >= 1 then iv (a.lo / b.hi) (a.hi / b.lo)
              else top ~width:w (* divisor may be 0: result may be all-ones *)
          | Remu ->
              if b.hi = 0 then { a with taint = [] } (* x mod 0 = x *)
              else if b.lo >= 1 then iv 0 (min a.hi (b.hi - 1))
              else iv 0 (max a.hi (b.hi - 1))
          | Divs | Rems -> top ~width:w
          | And ->
              let z = k0 a lor k0 b and o = k1 a land k1 b in
              kb 0 (min a.hi b.hi) (z lor o) o
          | Or ->
              let z = k0 a land k0 b and o = k1 a lor k1 b in
              kb (max a.lo b.lo) (umax (bits_needed (a.hi lor b.hi))) (z lor o) o
          | Xor ->
              let kmask = a.kmask land b.kmask in
              kb 0
                (umax (bits_needed (a.hi lor b.hi)))
                kmask
                ((a.kval lxor b.kval) land kmask)
          | Shl -> (
              match is_const b with
              | Some c when c = 0 -> { a with taint = [] }
              | Some c when c >= w -> const ~width:w 0
              | Some c ->
                  let kmask = (a.kmask lsl c) lor ((1 lsl c) - 1) in
                  let kval = (a.kval lsl c) land m in
                  let lo, hi =
                    if bits_needed a.hi + c <= w then (a.lo lsl c, a.hi lsl c)
                    else (0, m)
                  in
                  kb lo hi kmask kval
              | None -> if b.hi = 0 then { a with taint = [] } else top ~width:w)
          | Shrl -> shrl_nonneg a b w m
          | Shra ->
              let half = if w = 1 then 1 else 1 lsl (w - 1) in
              if a.hi < half then
                (* sign bit known 0: arithmetic = logical *)
                shrl_nonneg a b w m
              else (
                match is_const b with
                | Some c when a.lo >= half ->
                    (* sign bit known 1: ones fill from the top *)
                    let c = min c w in
                    let hm = m land lnot (m lsr c) in
                    iv ((a.lo lsr c) lor hm) ((a.hi lsr c) lor hm)
                | _ -> top ~width:w)
          | Minu -> iv (min a.lo b.lo) (min a.hi b.hi)
          | Maxu -> iv (max a.lo b.lo) (max a.hi b.hi)
          | Mins | Maxs -> join a b (* the result is one of the two *))
    in
    set_taint taint r

  (* Three-valued unsigned [a < b] and [a <= b]; [>]/[>=] swap sides. *)
  let ult3 a b =
    if a.hi < b.lo then Some true else if a.lo >= b.hi then Some false else None

  let ule3 a b =
    if a.hi <= b.lo then Some true else if a.lo > b.hi then Some false else None

  let cmp (op : Opkind.cmpop) a b =
    let taint = union_taint a.taint b.taint in
    let w = a.width in
    (* Signed comparisons sharpen when both operands' sign bits are
       statically known: within one sign class the two's-complement
       order coincides with the unsigned order, and across classes the
       negative operand is the smaller one. *)
    let signed rel a b =
      let half = if w = 1 then 1 else 1 lsl (w - 1) in
      let nonneg d = d.hi < half and neg d = d.lo >= half in
      if (nonneg a && nonneg b) || (neg a && neg b) then rel a b
      else if neg a && nonneg b then Some true
      else if nonneg a && neg b then Some false
      else None
    in
    let r =
      match fold (Opkind.cmp_bitvec op) a b with
      | Some r -> r
      | None ->
          of_bool3
            (match op with
            | Eq | Ne ->
                let conflict = a.kmask land b.kmask land (a.kval lxor b.kval) in
                let eq3 =
                  if a.hi < b.lo || b.hi < a.lo || conflict <> 0 then Some false
                  else None (* both-const handled above *)
                in
                if op = Eq then eq3 else Option.map not eq3
            | Ltu -> ult3 a b
            | Leu -> ule3 a b
            | Gtu -> ult3 b a
            | Geu -> ule3 b a
            | Lts -> signed ult3 a b
            | Les -> signed ule3 a b
            | Gts -> signed ult3 b a
            | Ges -> signed ule3 b a)
    in
    set_taint taint r

  let resize_u a width =
    if width >= a.width then
      let new_high = umax width land lnot (umax a.width) in
      norm
        {
          width;
          lo = a.lo;
          hi = a.hi;
          kmask = a.kmask lor new_high;
          kval = a.kval;
          taint = a.taint;
        }
    else
      let m = umax width in
      if a.hi <= m then
        norm
          {
            width;
            lo = a.lo;
            hi = a.hi;
            kmask = a.kmask land m;
            kval = a.kval land m;
            taint = a.taint;
          }
      else
        norm
          {
            width;
            lo = 0;
            hi = m;
            kmask = a.kmask land m;
            kval = a.kval land m;
            taint = a.taint;
          }

  let resize_s a width =
    if width <= a.width then resize_u a width
    else
      let half = if a.width = 1 then 1 else 1 lsl (a.width - 1) in
      if a.hi < half then resize_u a width
      else if a.lo >= half then
        let ext = umax width land lnot (umax a.width) in
        norm
          {
            width;
            lo = a.lo lor ext;
            hi = a.hi lor ext;
            kmask = a.kmask lor ext;
            kval = a.kval lor ext;
            taint = a.taint;
          }
      else
        (* Sign unknown: only the bits strictly below the old sign bit
           survive extension unchanged. *)
        let low = half - 1 in
        norm
          {
            width;
            lo = 0;
            hi = umax width;
            kmask = a.kmask land low;
            kval = a.kval land low;
            taint = a.taint;
          }

  let unary (op : Opkind.unop) a =
    let taint = a.taint in
    let r =
      match op with
      | Pass -> { a with taint = [] }
      | Not ->
          let m = umax a.width in
          norm
            {
              width = a.width;
              lo = m - a.hi;
              hi = m - a.lo;
              kmask = a.kmask;
              kval = lnot a.kval land a.kmask;
              taint = [];
            }
      | Neg -> (
          match is_const a with
          | Some v ->
              const ~width:a.width
                (Bitvec.to_int
                   (Opkind.un_bitvec Neg (Bitvec.create ~width:a.width v)))
          | None ->
              let m = umax a.width in
              if a.lo >= 1 then
                norm
                  {
                    width = a.width;
                    lo = m - a.hi + 1;
                    hi = m - a.lo + 1;
                    kmask = 0;
                    kval = 0;
                    taint = [];
                  }
              else top ~width:a.width)
      | Abs ->
          let half = if a.width = 1 then 1 else 1 lsl (a.width - 1) in
          if a.hi < half then { a with taint = [] } else top ~width:a.width
    in
    set_taint taint r
end

(* ------------------------------------------------------------------ *)
(* Three-valued guard evaluation                                       *)

let not3 = function Dom.Yes -> Dom.No | Dom.No -> Dom.Yes | Dom.Maybe -> Dom.Maybe

let and3 a b =
  match (a, b) with
  | Dom.No, _ | _, Dom.No -> Dom.No
  | Dom.Yes, Dom.Yes -> Dom.Yes
  | _ -> Dom.Maybe

let or3 a b =
  match (a, b) with
  | Dom.Yes, _ | _, Dom.Yes -> Dom.Yes
  | Dom.No, Dom.No -> Dom.No
  | _ -> Dom.Maybe

let test3 (d : Dom.t) op value =
  let b3 yes no = if yes then Dom.Yes else if no then Dom.No else Dom.Maybe in
  match op with
  | Guard.Ceq ->
      b3
        (d.Dom.lo = d.Dom.hi && d.Dom.lo = value)
        (value < d.Dom.lo || value > d.Dom.hi
        || value land d.Dom.kmask <> d.Dom.kval)
  | Guard.Cne ->
      not3
        (b3
           (d.Dom.lo = d.Dom.hi && d.Dom.lo = value)
           (value < d.Dom.lo || value > d.Dom.hi
           || value land d.Dom.kmask <> d.Dom.kval))
  | Guard.Clt -> b3 (d.Dom.hi < value) (d.Dom.lo >= value)
  | Guard.Cle -> b3 (d.Dom.hi <= value) (d.Dom.lo > value)
  | Guard.Cgt -> b3 (d.Dom.lo > value) (d.Dom.hi <= value)
  | Guard.Cge -> b3 (d.Dom.lo >= value) (d.Dom.hi < value)

let rec guard3 g env =
  match g with
  | Guard.True -> Dom.Yes
  | Guard.Test { signal; op; value } -> test3 (env signal) op value
  | Guard.Not g -> not3 (guard3 g env)
  | Guard.And (a, b) -> and3 (guard3 a env) (guard3 b env)
  | Guard.Or (a, b) -> or3 (guard3 a env) (guard3 b env)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

type verdict =
  | Proved_acyclic
  | Dynamic_cycle of { state : string; through : string list }
  | Unresolved of { state : string }

type cycle_finding = { members : string list; cycle_verdict : verdict }

type t = {
  seq_names : string array; (* register/counter ids, store order *)
  intervals : (string, int array) Hashtbl.t;
      (* reachable state -> [lo; hi] of each register on entry, store
         order: what {!reg_interval} reads, kept without the rest of
         the abstract values *)
  diags : Diag.t list;
  findings : cycle_finding list;
  reachable : string list;
  iterations : int;
  seconds : float;
}

(* An operator's input drivers, by port name. Absent ports hold
   [no_input], which fails as an index if ever read. *)
type node = {
  inputs : int array; (* every input, spec port order *)
  a : int;
  b : int;
  sel : int;
  ins : int array; (* mux data inputs in0 .. in(n-1) *)
  addr : int;
  din : int;
  we : int;
  en : int;
  d : int;
  load : int;
  value : int; (* const: its value *)
  step : int; (* counter: its step *)
}

let no_input = min_int

(* Pre-resolved structure shared by every state evaluation. *)
type prep = {
  p_dp : Dp.t;
  e : Elab.t;
  ops : Elab.op array; (* by id *)
  nodes : node array; (* by op id *)
  seq : Elab.op array; (* reg + counter, doc order: the store layout *)
  muxes : Elab.op array; (* comb muxes, doc order *)
  statuses : (string, int) Hashtbl.t; (* status name -> tapped op id *)
  ctl_index : (string, int) Hashtbl.t; (* control name -> index *)
  ctl_defaults : int option array; (* the FSM output's default value *)
  mem_contents : int array option array;
      (* op id -> initial words (zero-padded to size), for memory ports
         proved read-only within this design whose initial contents the
         caller declared via [analyze ?memories]. *)
  consumers : int array array; (* op id -> combinational consumer ids *)
  orders : (string, split) Hashtbl.t; (* resolved-select pattern -> split *)
  states : (string, cells) Hashtbl.t; (* state name -> its cells *)
  (* Scratch of {!eval_state}: the resolved selects (mux id -> selected
     input, -1 for none), a pass stamp, the stamp each op was last
     queued in, and the work heap of positions. *)
  resolved : int array;
  mutable stamp : int;
  queued : int array;
  heap : int array;
  mutable heap_size : int;
}

(* The levelized combinational network under one resolved-select
   pattern. *)
and split = {
  order : Elab.op array;
  stuck : Elab.op array; (* residual-cycle members and their fanout *)
  pos : int array; (* op id -> position in [order], -1 if not there *)
}

(* One state's abstract values, kept between its visits. They live in
   arrays indexed by {!Elab} ids: an input's driver is pre-resolved to an
   int code, an operator output being the operator's id and control [i]
   of the datapath [-1 - i]. [vals] holds the values of the last visit's
   settle; [undo] restores those of its first pass (no select resolved),
   which a revisit updates incrementally. *)
and cells = {
  vals : Dom.t array; (* op id -> output value *)
  ctl : Dom.t array; (* control index -> value in the state *)
  mutable first_store : Dom.t array option; (* store of the kept first pass *)
  mutable undo : (int * Dom.t) list; (* newest first *)
}

let get cells code = if code >= 0 then cells.vals.(code) else cells.ctl.(-1 - code)

let params (op : Elab.op) = op.Elab.spec.Opspec.params

let build_prep ?(memories = []) e fsm =
  let dp = Elab.datapath e in
  let ops = Elab.ops e in
  let seq_ops =
    List.filter
      (fun (o : Elab.op) -> match o.Elab.kind with Reg | Counter -> true | _ -> false)
      ops
  in
  let ctl_index = Hashtbl.create 16 in
  List.iteri
    (fun i (c : Dp.control) -> Hashtbl.replace ctl_index c.Dp.ctl_name i)
    dp.Dp.controls;
  let code = function
    | Elab.Op_out (o, _) -> o.Elab.id
    | Elab.Ctl c -> -1 - Hashtbl.find ctl_index c.Dp.ctl_name
  in
  let node (o : Elab.op) =
    let port name =
      match
        List.find_opt
          (fun ((p : Opspec.port), _) -> p.Opspec.port_name = name)
          o.Elab.inputs
      with
      | Some (_, d) -> code d
      | None -> no_input
    in
    {
      inputs = Array.of_list (List.map (fun (_, d) -> code d) o.Elab.inputs);
      a = port "a";
      b = port "b";
      sel = port "sel";
      ins =
        (if o.Elab.kind = Mux then
           Array.init (params o).inputs (fun i -> port (Printf.sprintf "in%d" i))
         else [||]);
      addr = port "addr";
      din = port "din";
      we = port "we";
      en = port "en";
      d = port "d";
      load = port "load";
      value = (params o).value;
      step = (params o).step;
    }
  in
  let statuses = Hashtbl.create 8 in
  List.iter
    (fun (s : Dp.status) ->
      if not (Hashtbl.mem statuses s.Dp.st_name) then
        let op = Option.get (Elab.find e s.Dp.st_source.Dp.inst) in
        Hashtbl.replace statuses s.Dp.st_name op.Elab.id)
    dp.Dp.statuses;
  (* Per-cell abstract memory: a memory port's reads can use the declared
     initial contents only when nothing in this design can overwrite
     them — the port is a rom, or an sram whose write enable is tied to
     a literal constant zero (the generator wires never-written memories
     that way). Any other sram on the same backing memory disqualifies
     it too. The caller is responsible for only declaring [memories]
     whose contents no other configuration (or host) mutates. *)
  let mem_contents = Array.make (List.length ops) None in
  let never_written_port (o : Elab.op) =
    match o.Elab.kind with
    | Rom -> true
    | _ -> (
        match Elab.driver o "we" with
        | Elab.Op_out (({ Elab.kind = Const; _ } as c), _) -> (params c).value = 0
        | Elab.Op_out _ | Elab.Ctl _ -> false)
  in
  let mem_ports =
    List.filter
      (fun (o : Elab.op) -> match o.Elab.kind with Sram | Rom -> true | _ -> false)
      ops
  in
  let never_written name =
    List.for_all
      (fun o -> (params o).memory <> name || never_written_port o)
      mem_ports
  in
  List.iter
    (fun (o : Elab.op) ->
      let { Opspec.memory = name; size; _ } = params o in
      match List.assoc_opt name memories with
      | Some init when never_written name ->
          let m = umax o.Elab.width in
          let words =
            Array.init size (fun i ->
                if i < List.length init then List.nth init i land m else 0)
          in
          mem_contents.(o.Elab.id) <- Some words
      | Some _ | None -> ())
    mem_ports;
  {
    p_dp = dp;
    e;
    ops = Array.of_list ops;
    nodes = Array.of_list (List.map node ops);
    seq = Array.of_list seq_ops;
    muxes =
      Array.of_list
        (List.filter (fun (o : Elab.op) -> o.Elab.kind = Mux) (Elab.comb e));
    statuses;
    ctl_index;
    ctl_defaults =
      Array.of_list
        (List.map
           (fun (c : Dp.control) ->
             List.find_opt
               (fun (o : Fsm.io) -> o.Fsm.io_name = c.Dp.ctl_name)
               fsm.Fsm.outputs
             |> Option.map (fun (o : Fsm.io) -> o.Fsm.default))
           dp.Dp.controls);
    mem_contents;
    consumers =
      Array.of_list
        (List.map
           (fun o ->
             Array.of_list
               (List.filter_map
                  (fun (c : Elab.op) ->
                    if Opkind.is_comb c.Elab.kind then Some c.Elab.id else None)
                  (Elab.consumers o)))
           ops);
    orders = Hashtbl.create 16;
    states = Hashtbl.create 16;
    resolved = Array.make (List.length ops) (-1);
    stamp = 0;
    queued = Array.make (List.length ops) (-1);
    heap = Array.make (List.length ops) 0;
    heap_size = 0;
  }

let out_width (op : Elab.op) = (Elab.out_port op).Opspec.port_width

(* The levelized split of the combinational network under
   a resolved-select pattern ([resolved.(id)] is the selected input of
   mux [id], or -1): a resolved mux depends on its selected input only.
   Computed once per distinct pattern and reused. *)
let levelized prep resolved =
  let key = Bytes.create (4 * Array.length prep.muxes) in
  Array.iteri
    (fun i (m : Elab.op) ->
      Bytes.set_int32_le key (4 * i) (Int32.of_int resolved.(m.Elab.id)))
    prep.muxes;
  let key = Bytes.unsafe_to_string key in
  match Hashtbl.find_opt prep.orders key with
  | Some split -> split
  | None ->
      let deps (op : Elab.op) =
        let i = resolved.(op.Elab.id) in
        if op.Elab.kind = Mux && i >= 0 then
          let src = prep.nodes.(op.Elab.id).ins.(i) in
          if src >= 0 then [ prep.ops.(src) ] else []
        else Elab.comb_preds op
      in
      let order, stuck = Elab.levelize prep.e ~deps in
      let order = Array.of_list order in
      let pos = Array.make (Array.length prep.ops) (-1) in
      Array.iteri (fun i (op : Elab.op) -> pos.(op.Elab.id) <- i) order;
      let split = { order; stuck = Array.of_list stuck; pos } in
      Hashtbl.add prep.orders key split;
      split

(* Abstract transfer of one combinational operator. *)
let eval_comb prep cells resolved (op : Elab.op) =
  let n = prep.nodes.(op.Elab.id) in
  let get = get cells in
  let width = op.Elab.width in
  match op.Elab.kind with
  | Const -> Dom.const ~width n.value
  | Zext -> Dom.resize_u (get n.a) width
  | Sext -> Dom.resize_s (get n.a) width
  | Un u -> Dom.unary u (get n.a)
  | Mux -> (
      let i = resolved.(op.Elab.id) in
      if i >= 0 then get n.ins.(i)
      else
        let last = Array.length n.ins - 1 in
        let sel = get n.sel in
        let lo = min sel.Dom.lo last and hi = min sel.Dom.hi last in
        let v = ref (get n.ins.(lo)) in
        for i = lo + 1 to hi do
          v := Dom.join !v (get n.ins.(i))
        done;
        let v = !v in
        Dom.with_taint (Dom.union_taint v.Dom.taint sel.Dom.taint) v)
  | Sram | Rom -> (
      (* Reads from a memory proved read-only (with declared initial
         contents) join the cells the abstract address can reach;
         out-of-range addresses read as 0, matching the open-decode
         convention. Other memories yield top. *)
      match prep.mem_contents.(op.Elab.id) with
      | None -> Dom.top ~width:(out_width op)
      | Some contents ->
          let w = out_width op in
          let addr = get n.addr in
          let size = Array.length contents in
          if addr.Dom.hi - addr.Dom.lo > 1024 then Dom.top ~width:w
          else begin
            let acc = ref None in
            for a = addr.Dom.lo to addr.Dom.hi do
              if Dom.contains addr a then begin
                let v = if a < size then contents.(a) else 0 in
                let d = Dom.const ~width:w v in
                acc :=
                  Some (match !acc with None -> d | Some x -> Dom.join x d)
              end
            done;
            match !acc with
            | None -> Dom.top ~width:w
            | Some v -> Dom.with_taint addr.Dom.taint v
          end)
  | Bin b -> Dom.binary b (get n.a) (get n.b)
  | Cmp c -> Dom.cmp c (get n.a) (get n.b)
  | Reg | Counter | Check | Stop | Probe -> assert false (* not comb *)

(* Abstract values of the control cells in a state: the Moore decode
   is exact, every control is a compile-time constant per state. This is
   {!Fsm.output_in_state} for every control: the state's first setting
   of the output, else the output's default. *)
let controls_in prep (st : Fsm.state) =
  let v = Array.copy prep.ctl_defaults in
  List.iter
    (fun (name, x) ->
      match Hashtbl.find_opt prep.ctl_index name with
      | Some i -> v.(i) <- Some x
      | None -> ())
    (List.rev st.Fsm.settings);
  Array.of_list
    (List.mapi
       (fun i (c : Dp.control) ->
         match v.(i) with
         | Some x -> Dom.const ~width:c.Dp.ctl_width x
         | None ->
             failwith
               (Printf.sprintf "absint: design has no control %S" c.Dp.ctl_name))
       prep.p_dp.Dp.controls)

let cells_of prep (st : Fsm.state) =
  match Hashtbl.find_opt prep.states st.Fsm.sname with
  | Some cells -> cells
  | None ->
      let cells =
        {
          vals = Array.make (Array.length prep.ops) (Dom.top ~width:1);
          ctl = controls_in prep st;
          first_store = None;
          undo = [];
        }
      in
      Hashtbl.replace prep.states st.Fsm.sname cells;
      cells

(* The work heap: a binary min-heap of positions in a pass's order. *)
let push prep p =
  let h = prep.heap in
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && h.(parent) > p then begin
      h.(i) <- h.(parent);
      up parent
    end
    else h.(i) <- p
  in
  up prep.heap_size;
  prep.heap_size <- prep.heap_size + 1

let pop prep =
  let h = prep.heap in
  let min = h.(0) in
  let n = prep.heap_size - 1 in
  prep.heap_size <- n;
  let last = h.(n) in
  let rec down i =
    let l = (2 * i) + 1 in
    if l >= n then h.(i) <- last
    else
      let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < last then begin
        h.(i) <- h.(c);
        down c
      end
      else h.(i) <- last
  in
  if n > 0 then down 0;
  min

(* Queues operator [id] for the current pass when it is in the pass's
   order and not queued yet. *)
let enqueue prep split id =
  let p = split.pos.(id) in
  if p >= 0 && prep.queued.(id) <> prep.stamp then begin
    prep.queued.(id) <- prep.stamp;
    push prep p
  end

(* Evaluates the queued operators in the order of [split], queueing the
   consumers of every value that changes (a resolved mux consumes only
   its selected input). With [log], each overwritten value goes to
   [cells.undo]. *)
let evaluate prep cells split ~log =
  let resolved = prep.resolved in
  while prep.heap_size > 0 do
    let op = split.order.(pop prep) in
    let id = op.Elab.id in
    let d = eval_comb prep cells resolved op in
    let old = cells.vals.(id) in
    if not (Dom.equal d old) then begin
      if log then cells.undo <- (id, old) :: cells.undo;
      cells.vals.(id) <- d;
      Array.iter
        (fun c ->
          let i = resolved.(c) in
          if i < 0 || prep.nodes.(c).ins.(i) = id then enqueue prep split c)
        prep.consumers.(id)
    end
  done

(* One abstract settle of the combinational network in a single FSM
   state under an entry store. Muxes whose select evaluates to a
   constant are restricted to their selected input, which both sharpens
   values and breaks structural cycles; the loop re-restricts until no
   select resolves further. Operators on residual cycles conservatively
   evaluate to top. Returns the settled cells and the resolved selects
   (op id -> selected input, -1 for none), the cells valid until the
   state's next evaluation and the selects until the next evaluation of
   any state.

   Passes re-evaluate only what can differ from the full evaluation
   they stand for. A state's first pass (no select resolved) is kept
   from its previous visit, and a revisit re-evaluates only the cones of
   the registers whose entry value changed. Each later pass
   re-evaluates the muxes resolved since the previous one, the
   operators that left the residual cycles, and the consumers of every
   value that changed. Every other value is what a full re-evaluation
   would recompute, so the result is the same. *)
let eval_state prep (st : Fsm.state) store =
  let cells = cells_of prep st in
  let vals = cells.vals and resolved = prep.resolved in
  List.iter (fun (id, d) -> vals.(id) <- d) cells.undo;
  cells.undo <- [];
  Array.iter (fun (m : Elab.op) -> resolved.(m.Elab.id) <- -1) prep.muxes;
  prep.stamp <- prep.stamp + 1;
  let split = levelized prep resolved in
  (match cells.first_store with
  | None ->
      Array.iteri (fun i (op : Elab.op) -> vals.(op.Elab.id) <- store.(i)) prep.seq;
      (* Residual-cycle members evaluate to top — sound for any value
         they could oscillate through. The residual cycles only shrink
         as selects resolve, so this is their value until they leave. *)
      Array.iter
        (fun (op : Elab.op) -> vals.(op.Elab.id) <- Dom.top ~width:(out_width op))
        split.stuck;
      Array.iter
        (fun (op : Elab.op) -> vals.(op.Elab.id) <- eval_comb prep cells resolved op)
        split.order
  | Some prev ->
      Array.iteri
        (fun i (op : Elab.op) ->
          if not (Dom.equal store.(i) prev.(i)) then begin
            vals.(op.Elab.id) <- store.(i);
            Array.iter (enqueue prep split) prep.consumers.(op.Elab.id)
          end)
        prep.seq;
      evaluate prep cells split ~log:false);
  cells.first_store <- Some store;
  (* Resolve further mux selects now that values exist. *)
  let rec settle split =
    let fresh =
      Array.fold_left
        (fun acc (op : Elab.op) ->
          let id = op.Elab.id in
          if resolved.(id) >= 0 then acc
          else
            match Dom.is_const (get cells prep.nodes.(id).sel) with
            | Some c ->
                resolved.(id) <- min c (Array.length prep.nodes.(id).ins - 1);
                id :: acc
            | None -> acc)
        [] prep.muxes
    in
    if fresh <> [] then begin
      prep.stamp <- prep.stamp + 1;
      let next = levelized prep resolved in
      List.iter (enqueue prep next) fresh;
      Array.iter (fun (op : Elab.op) -> enqueue prep next op.Elab.id) split.stuck;
      evaluate prep cells next ~log:true;
      settle next
    end
  in
  settle split;
  (cells, resolved)

let status_env prep cells name =
  match Hashtbl.find_opt prep.statuses name with
  | Some id -> cells.vals.(id)
  | None -> failwith ("absint: design has no status " ^ name)

(* Guards actually examined in a state (everything up to and including
   the first definitely-true one) — the observation set for AI003. *)
let examined_guards prep (st : Fsm.state) cells =
  let env = status_env prep cells in
  let rec go acc = function
    | [] -> List.rev acc
    | (tr : Fsm.transition) :: rest -> (
        match guard3 tr.Fsm.guard env with
        | Dom.Yes -> List.rev (tr.Fsm.guard :: acc)
        | _ -> go (tr.Fsm.guard :: acc) rest)
  in
  go [] st.Fsm.transitions

(* Per-state stores are arrays over [prep.seq]. *)
let next_store prep cells store =
  Array.mapi
    (fun i (op : Elab.op) ->
      let q = store.(i) and n = prep.nodes.(op.Elab.id) in
      match op.Elab.kind with
      | Reg -> (
          let d = get cells n.d in
          match Dom.truth (get cells n.en) with
          | Dom.Yes -> d
          | Dom.No -> q
          | Dom.Maybe -> Dom.join q d)
      | Counter -> (
          let en = get cells n.en
          and load = get cells n.load
          and d = get cells n.d in
          let stepped = Dom.binary Add q (Dom.const ~width:op.Elab.width n.step) in
          let q1 =
            match Dom.truth en with
            | Dom.Yes -> stepped
            | Dom.No -> q
            | Dom.Maybe -> Dom.join q stepped
          in
          match Dom.truth load with
          | Dom.Yes -> d
          | Dom.No -> q1
          | Dom.Maybe -> Dom.join d q1)
      | _ -> q)
    prep.seq

let init_store prep =
  Array.map
    (fun (op : Elab.op) ->
      let width = op.Elab.width in
      match (op.Elab.kind, (params op).init) with
      | Reg, Some init -> Dom.const ~width init
      | Reg, None ->
          (* Reset default: taint the value so a read-before-write
             shows up when it reaches an observable. *)
          Dom.with_taint [ op.Elab.name ] (Dom.const ~width 0)
      | _ -> Dom.const ~width 0)
    prep.seq

let store_join = Array.map2 Dom.join

let store_widen thresholds ~prev ~next =
  Array.map2 (fun a b -> Dom.widen_sorted thresholds ~prev:a ~next:b) prev next

let store_equal a b = Array.for_all2 Dom.equal a b

(* --- per-edge guard refinement ------------------------------------- *)

(* Taking a transition asserts facts about the current state's status
   values: the taken guard holds and every earlier guard examined on the
   way failed. Those facts refine the store flowing along that edge —
   the relational step that lets a loop counter's exit test bound an
   address computed from it (the sort/fir AI001 imprecision). The
   refinement is conservative:

   - guard literals are decomposed under polarity (conjunctions when the
     guard must hold, disjunctions when it must fail; anything else is
     skipped);
   - each literal's allowed interval is pushed backward from the status
     endpoint through resolved muxes, [pass], 1-bit and/or/not gates and
     one comparison operator whose other operand's settled interval
     bounds the refinement;
   - only registers *not* written in the state are refined (their next
     value is exactly the constrained current value); counters and
     written registers are left alone;
   - an empty meet anywhere proves the edge infeasible and drops it
     (settled cells over-approximate the concrete values, so an empty
     intersection is a genuine contradiction). *)

exception Infeasible_edge

let rec refine_endpoint prep cells resolved depth code (lo, hi) acc =
  if depth > 64 then acc
  else
    let (d : Dom.t) = get cells code in
    if lo > d.Dom.hi || hi < d.Dom.lo then raise Infeasible_edge;
    if code < 0 then acc (* a control *)
    else
      let op = prep.ops.(code) and n = prep.nodes.(code) in
      let follow src interval acc =
        refine_endpoint prep cells resolved (depth + 1) src interval acc
      in
      let m w = umax w in
      match op.Elab.kind with
      | Reg | Counter -> (op.Elab.id, lo, hi) :: acc
      | Un Pass -> follow n.a (lo, hi) acc
      | Mux ->
          let i = resolved.(code) in
          if i >= 0 then follow n.ins.(i) (lo, hi) acc else acc
      | Bin And when op.Elab.width = 1 && lo >= 1 ->
          follow n.a (1, 1) (follow n.b (1, 1) acc)
      | Bin Or when op.Elab.width = 1 && hi = 0 ->
          follow n.a (0, 0) (follow n.b (0, 0) acc)
      | Un Not when op.Elab.width = 1 && (hi = 0 || lo >= 1) ->
          follow n.a ((if hi = 0 then 1 else 0), if hi = 0 then 1 else 0) acc
      | Cmp c when lo >= 1 || hi = 0 ->
          let truth = lo >= 1 in
          let da = get cells n.a and db = get cells n.b in
          let w = da.Dom.width in
          (* Normalize to an unsigned relation [a R b]: signed
             comparisons refine only when both settled operands are
             provably non-negative, where the orders agree. *)
          let half = if w = 1 then 1 else 1 lsl (w - 1) in
          let signed = match c with Lts | Les | Gts | Ges -> true | _ -> false in
          if signed && not (da.Dom.hi < half && db.Dom.hi < half) then acc
          else
            let rel =
              match (c, truth) with
              | (Eq | Ne), _ -> `Eq (truth = (c = Eq))
              | ((Ltu | Lts), true) | ((Geu | Ges), false) -> `Lt
              | ((Leu | Les), true) | ((Gtu | Gts), false) -> `Le
              | ((Gtu | Gts), true) | ((Leu | Les), false) -> `Gt
              | ((Geu | Ges), true) | ((Ltu | Lts), false) -> `Ge
            in
            (* Allowed interval for one operand given the settled
               interval of the other, under [a R b]. *)
            let bound_a other =
              match rel with
              | `Eq true -> Some (other.Dom.lo, other.Dom.hi)
              | `Eq false -> (
                  (* only a point can be excluded usefully *)
                  match Dom.is_const other with
                  | Some 0 -> Some (1, m w)
                  | Some v when v = m w -> Some (0, m w - 1)
                  | _ -> None)
              | `Lt ->
                  if other.Dom.hi = 0 then raise Infeasible_edge
                  else Some (0, other.Dom.hi - 1)
              | `Le -> Some (0, other.Dom.hi)
              | `Gt ->
                  if other.Dom.lo = m w then raise Infeasible_edge
                  else Some (other.Dom.lo + 1, m w)
              | `Ge -> Some (other.Dom.lo, m w)
            and bound_b other =
              match rel with
              | `Eq true -> Some (other.Dom.lo, other.Dom.hi)
              | `Eq false -> (
                  match Dom.is_const other with
                  | Some 0 -> Some (1, m w)
                  | Some v when v = m w -> Some (0, m w - 1)
                  | _ -> None)
              | `Lt ->
                  (* a < b: b > a >= a.lo *)
                  if other.Dom.lo = m w then raise Infeasible_edge
                  else Some (other.Dom.lo + 1, m w)
              | `Le -> Some (other.Dom.lo, m w)
              | `Gt ->
                  if other.Dom.hi = 0 then raise Infeasible_edge
                  else Some (0, other.Dom.hi - 1)
              | `Ge -> Some (0, other.Dom.hi)
            in
            let acc =
              match bound_a db with Some iv -> follow n.a iv acc | None -> acc
            in
            (match bound_b da with Some iv -> follow n.b iv acc | None -> acc)
      | _ -> acc

(* Allowed unsigned interval for a status value under one guard literal,
   [None] when the literal carries no interval information. Raises
   {!Infeasible_edge} when the literal is unsatisfiable outright. *)
let literal_interval ~width (op : Guard.cmp) value ~polarity =
  let m = umax width in
  let iv lo hi = if lo > hi then raise Infeasible_edge else Some (lo, hi) in
  match (op, polarity) with
  | Guard.Ceq, true | Guard.Cne, false ->
      if value < 0 || value > m then raise Infeasible_edge
      else iv value value
  | Guard.Ceq, false | Guard.Cne, true ->
      if value = 0 then iv 1 m
      else if value = m then iv 0 (m - 1)
      else if value < 0 || value > m then None (* always satisfied *)
      else None
  | Guard.Clt, true -> if value <= 0 then raise Infeasible_edge else iv 0 (min m (value - 1))
  | Guard.Clt, false -> if value > m then raise Infeasible_edge else iv (max 0 value) m
  | Guard.Cle, true -> if value < 0 then raise Infeasible_edge else iv 0 (min m value)
  | Guard.Cle, false -> if value >= m then raise Infeasible_edge else iv (max 0 (value + 1)) m
  | Guard.Cgt, true -> if value >= m then raise Infeasible_edge else iv (max 0 (value + 1)) m
  | Guard.Cgt, false -> if value < 0 then raise Infeasible_edge else iv 0 (min m value)
  | Guard.Cge, true -> if value > m then raise Infeasible_edge else iv (max 0 value) m
  | Guard.Cge, false -> if value <= 0 then raise Infeasible_edge else iv 0 (min m (value - 1))

(* Guard literals under a fixed polarity: conjunctions decompose when the
   guard must hold, disjunctions when it must fail. *)
let rec guard_literals polarity g acc =
  match g with
  | Guard.True -> acc
  | Guard.Test { signal; op; value } -> (signal, op, value, polarity) :: acc
  | Guard.Not g -> guard_literals (not polarity) g acc
  | Guard.And (a, b) when polarity ->
      guard_literals polarity a (guard_literals polarity b acc)
  | Guard.Or (a, b) when not polarity ->
      guard_literals polarity a (guard_literals polarity b acc)
  | Guard.And _ | Guard.Or _ -> acc

(* Register constraints implied by asserting [g = polarity] in a state,
   as (op id, lo, hi) triples. *)
let guard_constraints prep cells resolved polarity g acc =
  List.fold_left
    (fun acc (signal, op, value, pol) ->
      match Hashtbl.find_opt prep.statuses signal with
      | None -> acc
      | Some src -> (
          let width = cells.vals.(src).Dom.width in
          match literal_interval ~width op value ~polarity:pol with
          | None -> acc
          | Some iv -> refine_endpoint prep cells resolved 0 src iv acc))
    acc
    (guard_literals polarity g [])

(* Feasible successors of a state under the settled abstract statuses,
   with their per-edge refined next-stores. Transitions are tried in
   order, so exploration stops at the first guard that definitely holds;
   when no guard definitely holds the machine may stay put. Edges whose
   constraints are contradictory are dropped, and several edges to the
   same target join their refined stores. *)
let successors_refined prep (st : Fsm.state) cells resolved next =
  let env = status_env prep cells in
  let edge falses taken target =
    match
      (try
         let cs =
           List.fold_left
             (fun acc g -> guard_constraints prep cells resolved false g acc)
             (match taken with
             | None -> []
             | Some g -> guard_constraints prep cells resolved true g [])
             falses
         in
         Some cs
       with Infeasible_edge -> None)
    with
    | None -> None
    | Some constraints -> (
        try
          let refined =
            Array.mapi
              (fun i (op : Elab.op) ->
                let q = next.(i) in
                let written =
                  op.Elab.kind <> Reg
                  || Dom.truth (get cells prep.nodes.(op.Elab.id).en) <> Dom.No
                in
                if written then q
                else
                  List.fold_left
                    (fun q (rid, lo, hi) ->
                      if rid <> op.Elab.id then q
                      else
                        match Dom.meet_interval q lo hi with
                        | Some q' -> q'
                        | None -> raise Infeasible_edge)
                    q constraints)
              prep.seq
          in
          Some (target, refined)
        with Infeasible_edge -> None)
  in
  let rec go falses acc = function
    | [] -> List.rev_append acc (Option.to_list (edge falses None st.Fsm.sname))
    | (tr : Fsm.transition) :: rest -> (
        match guard3 tr.Fsm.guard env with
        | Dom.Yes ->
            List.rev_append acc
              (Option.to_list (edge falses (Some tr.Fsm.guard) tr.Fsm.target))
        | Dom.Maybe ->
            let acc =
              match edge falses (Some tr.Fsm.guard) tr.Fsm.target with
              | Some e -> e :: acc
              | None -> acc
            in
            go (tr.Fsm.guard :: falses) acc rest
        | Dom.No -> go (tr.Fsm.guard :: falses) acc rest)
  in
  let edges = go [] [] st.Fsm.transitions in
  (* Join refined stores per target, preserving first-seen order. *)
  let order = ref [] and by_target = Hashtbl.create 4 in
  List.iter
    (fun (target, store) ->
      match Hashtbl.find_opt by_target target with
      | None ->
          Hashtbl.replace by_target target store;
          order := target :: !order
      | Some prev -> Hashtbl.replace by_target target (store_join prev store))
    edges;
  List.rev_map (fun t -> (t, Hashtbl.find by_target t)) !order

(* ------------------------------------------------------------------ *)
(* Structural mux-broken cycles (the DP013 warning class)              *)

let by_name (a : Elab.op) (b : Elab.op) = compare a.Elab.name b.Elab.name

(* Structurally combinational operators (the lint notion: spec not
   sequential — matching DP013's membership). Successors are visited in
   name order, which fixes the order components are reported in. *)
let structural (o : Elab.op) = not o.Elab.spec.Opspec.sequential

let struct_succs (o : Elab.op) =
  List.sort_uniq by_name (List.filter structural (Elab.consumers o))

(* The structurally cyclic components that contain a mux and are broken
   by removing the muxes — exactly the components lint reports as DP013
   warnings. Members sorted by name. *)
let mux_broken_components prep =
  Elab.sccs ~succs:struct_succs
    (List.filter structural (Elab.ops prep.e))
  |> List.filter (fun scc ->
         List.exists (fun (v : Elab.op) -> v.Elab.kind = Mux) scc
         && not (Elab.cyclic_without_muxes ~succs:struct_succs scc))
  |> List.map (List.sort by_name)

(* Residual cycle of a component under a state's resolved selects:
   restricted to the members, a resolved mux keeps only its selected
   data input (its select no longer matters). Returns the first
   residual SCC, with whether every mux on it was resolved. *)
let residual_cycle prep members resolved =
  let succs (v : Elab.op) =
    List.filter_map
      (fun ((w : Elab.op), _) ->
        let kept =
          List.memq w members
          &&
          let i = resolved.(w.Elab.id) in
          i < 0 || prep.nodes.(w.Elab.id).ins.(i) = v.Elab.id
        in
        if kept then Some w else None)
      v.Elab.fanout
    |> List.sort_uniq by_name
  in
  match Elab.sccs ~succs members with
  | [] -> None
  | scc :: _ ->
      let all_resolved =
        List.for_all
          (fun (v : Elab.op) -> v.Elab.kind <> Mux || resolved.(v.Elab.id) >= 0)
          scc
      in
      Some (List.map (fun (v : Elab.op) -> v.Elab.name) (List.sort by_name scc), all_resolved)

(* ------------------------------------------------------------------ *)
(* Prover passes (the reporting sweep over the fixpoint)               *)

let dout_consumed prep (op : Elab.op) =
  op.Elab.fanout <> []
  || List.exists
       (fun (s : Dp.status) -> s.Dp.st_source.Dp.inst = op.Elab.name)
       prep.p_dp.Dp.statuses

(* Per-state value liveness: the operators whose output can reach an
   effect the state actually performs — an enabled register or counter
   update, a memory write, an armed check or stop, a probe, or a guard
   the controller examines. The closure walks drivers backward from
   those roots; a mux resolved by the state's control settings keeps
   only its selected input alive, a memory read keeps its address alive
   only when its data out is itself alive, and registers are a
   sequential boundary (their stored value is the previous state's
   business). AI005 consults this set: with threshold widening the
   intervals in a loop's exit-test state are informative enough to
   "overflow" on the default-routed address of a read nothing consumes
   there, and such dead-cone facts are noise. *)
let live_ops prep (st : Fsm.state) cells resolved =
  let live = Array.make (Array.length prep.ops) false in
  let rec trace code = if code >= 0 then trace_op prep.ops.(code)
  and trace_op (op : Elab.op) =
    let id = op.Elab.id in
    if not live.(id) then begin
      live.(id) <- true;
      let n = prep.nodes.(id) in
      match op.Elab.kind with
      | Reg | Counter -> ()
      | Sram | Rom -> trace n.addr
      | Mux ->
          trace n.sel;
          let i = resolved.(id) in
          if i >= 0 then trace n.ins.(i) else Array.iter trace n.ins
      | _ -> Array.iter trace n.inputs
    end
  in
  Array.iter
    (fun (op : Elab.op) ->
      let n = prep.nodes.(op.Elab.id) in
      let armed src = Dom.truth (get cells src) <> Dom.No in
      match op.Elab.kind with
      | Reg ->
          trace n.en;
          if armed n.en then trace n.d
      | Counter ->
          trace n.en;
          trace n.load;
          if armed n.load then trace n.d
      | Sram ->
          trace n.we;
          if armed n.we then begin
            trace n.addr;
            trace n.din
          end
      | Check ->
          trace n.en;
          if armed n.en then trace n.a
      | Stop -> trace n.en
      | Probe -> trace n.a
      | _ -> ())
    prep.ops;
  List.iter
    (fun g ->
      List.iter
        (fun signal ->
          match Hashtbl.find_opt prep.statuses signal with
          | Some src -> trace src
          | None -> ())
        (Guard.signals g))
    (examined_guards prep st cells);
  live

type facts = {
  (* op id -> first witness, upgraded partial->definite *)
  oob_write : (string, [ `Partial | `Definite ] * string * int * int) Hashtbl.t;
  oob_read : (string, string * int * int) Hashtbl.t;
  div_zero : (string, [ `Always | `Maybe ] * string) Hashtbl.t;
  trunc : (string, string * int * int) Hashtbl.t;
  uninit : (string, string * string) Hashtbl.t; (* reg -> state, observable *)
}

let collect_facts prep facts (st : Fsm.state) cells resolved =
  let sname = st.Fsm.sname in
  let live = live_ops prep st cells resolved in
  Array.iter
    (fun (op : Elab.op) ->
      let id = op.Elab.name and n = prep.nodes.(op.Elab.id) in
      match op.Elab.kind with
      | Sram | Rom ->
          let size = (params op).size in
          let addr = get cells n.addr in
          (if op.Elab.kind = Sram then
             let we = get cells n.we in
             if Dom.truth we <> Dom.No then begin
               let grade =
                 if addr.Dom.lo >= size then Some `Definite
                 else if addr.Dom.hi >= size then Some `Partial
                 else None
               in
               match (grade, Hashtbl.find_opt facts.oob_write id) with
               | None, _ -> ()
               | Some g, None ->
                   Hashtbl.replace facts.oob_write id
                     (g, sname, addr.Dom.lo, addr.Dom.hi)
               | Some `Definite, Some (`Partial, _, _, _) ->
                   Hashtbl.replace facts.oob_write id
                     (`Definite, sname, addr.Dom.lo, addr.Dom.hi)
               | Some _, Some _ -> ()
             end);
          if
            addr.Dom.lo >= size
            && dout_consumed prep op
            && not (Hashtbl.mem facts.oob_read id)
          then
            Hashtbl.replace facts.oob_read id (sname, addr.Dom.lo, addr.Dom.hi)
      | Bin (Divu | Divs | Remu | Rems) ->
          let b = get cells n.b in
          let grade =
            match Dom.truth b with
            | Dom.No -> Some `Always
            | Dom.Maybe -> Some `Maybe
            | Dom.Yes -> None
          in
          (match (grade, Hashtbl.find_opt facts.div_zero id) with
          | None, _ -> ()
          | Some g, None -> Hashtbl.replace facts.div_zero id (g, sname)
          | Some `Always, Some (`Maybe, _) ->
              Hashtbl.replace facts.div_zero id (`Always, sname)
          | Some _, Some _ -> ())
      | Zext | Sext ->
          let a = get cells n.a in
          (* Only warn when the analysis actually derived a bound that
             still overflows: a completely unknown input would flag every
             intentional narrowing (index truncation) speculatively. *)
          let informed =
            a.Dom.lo > 0
            || a.Dom.hi < umax a.Dom.width
            || a.Dom.kmask <> 0
          in
          if
            op.Elab.width < a.Dom.width
            && a.Dom.hi > umax op.Elab.width
            && informed
            && live.(op.Elab.id)
            && not (Hashtbl.mem facts.trunc id)
          then Hashtbl.replace facts.trunc id (sname, a.Dom.lo, a.Dom.hi)
      | _ -> ())
    prep.ops;
  (* Uninitialized-value observations. *)
  let observe taints desc =
    List.iter
      (fun reg ->
        if not (Hashtbl.mem facts.uninit reg) then
          Hashtbl.replace facts.uninit reg (sname, desc))
      taints
  in
  Array.iter
    (fun (op : Elab.op) ->
      let n = prep.nodes.(op.Elab.id) in
      match op.Elab.kind with
      | Sram ->
          let we = get cells n.we in
          if Dom.truth we <> Dom.No then begin
            observe
              (get cells n.din).Dom.taint
              (Printf.sprintf "the write data of memory %s" op.Elab.name);
            observe
              (get cells n.addr).Dom.taint
              (Printf.sprintf "the write address of memory %s" op.Elab.name)
          end
      | Check ->
          let en = get cells n.en in
          if Dom.truth en <> Dom.No then
            observe
              (get cells n.a).Dom.taint
              (Printf.sprintf "check %s" op.Elab.name)
      | _ -> ())
    prep.ops;
  List.iter
    (fun g ->
      List.iter
        (fun signal ->
          observe (status_env prep cells signal).Dom.taint
            (Printf.sprintf "the guard on status %s" signal))
        (Guard.signals g))
    (examined_guards prep st cells)

let fact_diags prep facts =
  let by_op f =
    List.concat_map (fun (op : Elab.op) -> f op) (Elab.ops prep.e)
  in
  let oob_write =
    by_op (fun op ->
        match Hashtbl.find_opt facts.oob_write op.Elab.name with
        | None -> []
        | Some (grade, sname, lo, hi) ->
            let loc = Printf.sprintf "operator %s" op.Elab.name in
            let { Opspec.memory = mem; size; _ } = params op in
            [
              (match grade with
              | `Definite ->
                  Diag.error ~code:"AI001" ~loc
                    ~hint:"bound the address computation or grow the memory"
                    "memory write always out of bounds in state %s: address \
                     in [%d, %d], memory %S size %d"
                    sname lo hi mem size
              | `Partial ->
                  Diag.warning ~code:"AI001" ~loc
                    ~hint:"bound the address computation or grow the memory"
                    "memory write may exceed bounds in state %s: address in \
                     [%d, %d], memory %S size %d"
                    sname lo hi mem size);
            ])
  in
  let oob_read =
    by_op (fun op ->
        match Hashtbl.find_opt facts.oob_read op.Elab.name with
        | None -> []
        | Some (sname, lo, hi) ->
            [
              Diag.warning ~code:"AI002"
                ~loc:(Printf.sprintf "operator %s" op.Elab.name)
                ~hint:"out-of-bounds reads return 0 and count as OOB accesses"
                "memory read always out of bounds in state %s: address in \
                 [%d, %d], memory %S size %d"
                sname lo hi (params op).memory (params op).size;
            ])
  in
  let uninit =
    by_op (fun op ->
        match Hashtbl.find_opt facts.uninit op.Elab.name with
        | None -> []
        | Some (sname, desc) ->
            [
              Diag.warning ~code:"AI003"
                ~loc:(Printf.sprintf "operator %s" op.Elab.name)
                ~hint:
                  "give the register an explicit init=\"...\" or write it \
                   before use"
                "register may be read before first write: its reset default \
                 can reach %s in state %s"
                desc sname;
            ])
  in
  let div_zero =
    by_op (fun op ->
        match Hashtbl.find_opt facts.div_zero op.Elab.name with
        | None -> []
        | Some (grade, sname) ->
            let loc = Printf.sprintf "operator %s" op.Elab.name in
            [
              (match grade with
              | `Always ->
                  Diag.warning ~code:"AI004" ~loc
                    ~hint:"x/0 yields all-ones and x mod 0 yields x"
                    "divisor is always zero in state %s" sname
              | `Maybe ->
                  Diag.warning ~code:"AI004" ~loc
                    ~hint:"x/0 yields all-ones and x mod 0 yields x"
                    "divisor may be zero in state %s" sname);
            ])
  in
  let trunc =
    by_op (fun op ->
        match Hashtbl.find_opt facts.trunc op.Elab.name with
        | None -> []
        | Some (sname, lo, hi) ->
            [
              Diag.warning ~code:"AI005"
                ~loc:(Printf.sprintf "operator %s" op.Elab.name)
                ~hint:"widen the output or mask the input explicitly"
                "truncation drops value bits in state %s: input range [%d, \
                 %d] exceeds the %d-bit output"
                sname lo hi op.Elab.width;
            ])
  in
  oob_write @ oob_read @ uninit @ div_zero @ trunc

(* ------------------------------------------------------------------ *)
(* Fixpoint driver                                                     *)

let max_visits = 1_000_000

(* Widening thresholds harvested from the design itself: the literal
   constants (and their neighbours, since loop exits compare with < or
   <=) plus the memory sizes. A bound still moving at the widening
   budget lands on the nearest threshold instead of the domain bound —
   which is exactly where counters bounded by [i < N] stabilize. *)
let widening_thresholds e =
  let base =
    List.sort_uniq compare
      (List.concat_map
         (fun (op : Elab.op) ->
           match op.Elab.kind with
           | Const ->
               let v = (params op).value land umax op.Elab.width in
               List.filter (fun t -> t >= 0) [ v - 1; v; v + 1 ]
           | Sram | Rom ->
               let s = (params op).size in
               [ s - 1; s ]
           | _ -> [])
         (Elab.ops e))
  in
  (* Array indexing derives bounds multiplicatively (base = row * W for
     a row counter bounded by a constant), so a moving bound's true
     resting place is often a product of two harvested constants.
     Include the pairwise products (capped to keep the list small) so
     the widening jump lands there instead of overshooting to an
     unrelated larger literal that narrowing cannot always claw back
     across a loop that merely carries the value. *)
  let cap = 1 lsl 20 in
  let products =
    List.concat_map
      (fun t1 ->
        List.filter_map
          (fun t2 ->
            let p = t1 * t2 in
            if t1 > 1 && t2 > 1 && p <= cap then Some p else None)
          base)
      base
  in
  List.sort_uniq compare (base @ products)

let run ~widen_after ~memories dp fsm =
  let t0 = Monotonic_clock.now () in
  let e =
    try Elab.of_datapath dp
    with Dp.Invalid msgs ->
      failwith ("absint: invalid datapath: " ^ String.concat "; " msgs)
  in
  (try Fsm.validate fsm
   with Fsm.Invalid msgs ->
     failwith ("absint: invalid fsm: " ^ String.concat "; " msgs));
  let prep = build_prep ~memories e fsm in
  let thresholds = Array.of_list (widening_thresholds e) in
  let state_of name =
    match Fsm.find_state fsm name with
    | Some st -> st
    | None -> failwith ("absint: fsm has no state " ^ name)
  in
  let entry : (string, Dom.t array) Hashtbl.t = Hashtbl.create 16 in
  let joins : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let queue = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let enqueue name =
    if not (Hashtbl.mem queued name) then begin
      Hashtbl.replace queued name ();
      Queue.add name queue
    end
  in
  Hashtbl.replace entry fsm.Fsm.initial (init_store prep);
  enqueue fsm.Fsm.initial;
  let iterations = ref 0 in
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    Hashtbl.remove queued name;
    incr iterations;
    if !iterations > max_visits then
      failwith "absint: fixpoint failed to converge";
    let st = state_of name in
    let store = Hashtbl.find entry name in
    let cells, resolved = eval_state prep st store in
    let next = next_store prep cells store in
    List.iter
      (fun (target, next) ->
        match Hashtbl.find_opt entry target with
        | None ->
            Hashtbl.replace entry target next;
            enqueue target
        | Some old ->
            let joined = store_join old next in
            let j = 1 + Option.value ~default:0 (Hashtbl.find_opt joins target) in
            Hashtbl.replace joins target j;
            let merged =
              if j > widen_after then
                store_widen thresholds ~prev:old ~next:joined
              else joined
            in
            if not (store_equal old merged) then begin
              Hashtbl.replace entry target merged;
              enqueue target
            end)
      (successors_refined prep st cells resolved next)
  done;
  (* Narrowing: a decreasing worklist iteration that recomputes every
     entry store as the join over its predecessors' latest transfers,
     without widening. Widening overshoots on derived registers
     (base = row*16 lands on a harvested threshold above its true bound
     when the joins exhaust the budget); starting from the converged
     post-fixpoint, each recomputation is again a post-fixpoint of the
     monotone transfer, so precision only improves and soundness is
     preserved — including when the visit budget cuts the iteration
     short. A state whose every incoming edge became infeasible under
     the tighter stores is genuinely unreachable and is dropped. *)
  let narrow_names =
    List.filter_map
      (fun (st : Fsm.state) ->
        if Hashtbl.mem entry st.Fsm.sname then Some st.Fsm.sname else None)
      fsm.Fsm.states
  in
  let narrow_budget = 16 * List.length narrow_names in
  (* target -> (source -> that source's latest contribution) *)
  let contrib_to : (string, (string, Dom.t array) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let contrib_tbl t =
    match Hashtbl.find_opt contrib_to t with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace contrib_to t h;
        h
  in
  let prev_out : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let apply name =
    incr iterations;
    let st = state_of name in
    let store = Hashtbl.find entry name in
    let cells, resolved = eval_state prep st store in
    let next = next_store prep cells store in
    let succs = successors_refined prep st cells resolved next in
    let now = List.map fst succs in
    let before = Option.value ~default:[] (Hashtbl.find_opt prev_out name) in
    List.iter
      (fun t -> if not (List.mem t now) then Hashtbl.remove (contrib_tbl t) name)
      before;
    Hashtbl.replace prev_out name now;
    List.iter (fun (t, s) -> Hashtbl.replace (contrib_tbl t) name s) succs;
    List.sort_uniq compare (before @ now)
  in
  let recompute_entry t =
    let contribs = Hashtbl.fold (fun _ s acc -> s :: acc) (contrib_tbl t) [] in
    let contribs =
      if t = fsm.Fsm.initial then init_store prep :: contribs else contribs
    in
    match contribs with
    | [] -> None
    | s :: rest -> Some (List.fold_left store_join s rest)
  in
  let nqueue = Queue.create () in
  let nqueued : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let nenqueue name =
    if Hashtbl.mem entry name && not (Hashtbl.mem nqueued name) then begin
      Hashtbl.replace nqueued name ();
      Queue.add name nqueue
    end
  in
  let rec drop_state t =
    Hashtbl.remove entry t;
    Hashtbl.remove nqueued t;
    let out = Option.value ~default:[] (Hashtbl.find_opt prev_out t) in
    Hashtbl.remove prev_out t;
    List.iter
      (fun tt ->
        Hashtbl.remove (contrib_tbl tt) t;
        settle_target tt)
      out
  and settle_target t =
    if Hashtbl.mem entry t then
      match recompute_entry t with
      | None -> drop_state t
      | Some e ->
          if not (store_equal (Hashtbl.find entry t) e) then begin
            Hashtbl.replace entry t e;
            nenqueue t
          end
  in
  List.iter (fun name -> ignore (apply name)) narrow_names;
  List.iter settle_target narrow_names;
  let visits = ref 0 in
  while (not (Queue.is_empty nqueue)) && !visits < narrow_budget do
    let name = Queue.pop nqueue in
    Hashtbl.remove nqueued name;
    if Hashtbl.mem entry name then begin
      incr visits;
      let affected = apply name in
      List.iter settle_target affected
    end
  done;
  (* Reporting sweep: reachable states in document order. *)
  let reachable =
    List.filter_map
      (fun (st : Fsm.state) ->
        if Hashtbl.mem entry st.Fsm.sname then Some st.Fsm.sname else None)
      fsm.Fsm.states
  in
  let facts =
    {
      oob_write = Hashtbl.create 8;
      oob_read = Hashtbl.create 8;
      div_zero = Hashtbl.create 8;
      trunc = Hashtbl.create 8;
      uninit = Hashtbl.create 8;
    }
  in
  let components = mux_broken_components prep in
  (* member set -> accumulated verdict *)
  let verdicts =
    List.map (fun members -> (members, ref Proved_acyclic)) components
  in
  List.iter
    (fun name ->
      let st = state_of name in
      let cells, resolved = eval_state prep st (Hashtbl.find entry name) in
      collect_facts prep facts st cells resolved;
      List.iter
        (fun (members, verdict) ->
          match !verdict with
          | Dynamic_cycle _ -> () (* an error already; keep first witness *)
          | _ -> (
              match residual_cycle prep members resolved with
              | None -> ()
              | Some (through, all_resolved) ->
                  if all_resolved then
                    verdict := Dynamic_cycle { state = name; through }
                  else if !verdict = Proved_acyclic then
                    verdict := Unresolved { state = name }))
        verdicts)
    reachable;
  let findings =
    List.map
      (fun (members, verdict) ->
        {
          members = List.map (fun (o : Elab.op) -> o.Elab.name) members;
          cycle_verdict = !verdict;
        })
      verdicts
  in
  {
    seq_names = Array.map (fun (op : Elab.op) -> op.Elab.name) prep.seq;
    intervals =
      (let h = Hashtbl.create (List.length reachable) in
       List.iter
         (fun name ->
           let store = Hashtbl.find entry name in
           Hashtbl.replace h name
             (Array.init
                (2 * Array.length store)
                (fun j ->
                  let d = store.(j / 2) in
                  if j land 1 = 0 then d.Dom.lo else d.Dom.hi)))
         reachable;
       h);
    diags = fact_diags prep facts;
    findings;
    reachable;
    iterations = !iterations;
    seconds = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9;
  }

(* A memo of finished analyses, keyed by a digest of the marshalled
   inputs. [No_sharing] makes structurally equal inputs marshal to the
   same bytes, whether or not their values are physically shared. *)
type cache = { lock : Mutex.t; table : (Digest.t, t) Hashtbl.t }

let create_cache () = { lock = Mutex.create (); table = Hashtbl.create 16 }

let analyze ?cache ?(widen_after = 8) ?(memories = []) dp fsm =
  match cache with
  | None -> run ~widen_after ~memories dp fsm
  | Some c -> (
      let key =
        Digest.string
          (Marshal.to_string (dp, fsm, memories, widen_after)
             [ Marshal.No_sharing ])
      in
      match Mutex.protect c.lock (fun () -> Hashtbl.find_opt c.table key) with
      | Some t -> t
      | None ->
          (* Analyse outside the lock; when two domains race on one key,
             the first result stored is the one both return. *)
          let t = run ~widen_after ~memories dp fsm in
          Mutex.protect c.lock (fun () ->
              match Hashtbl.find_opt c.table key with
              | Some first -> first
              | None ->
                  Hashtbl.add c.table key t;
                  t))

let diagnostics t = t.diags
let cycle_findings t = t.findings

let all_cycles_proved t =
  t.findings <> []
  && List.for_all (fun f -> f.cycle_verdict = Proved_acyclic) t.findings
let reachable_states t = t.reachable

let reg_interval t ~state ~reg =
  match Hashtbl.find_opt t.intervals state with
  | None -> None
  | Some bounds ->
      let rec find i =
        if i >= Array.length t.seq_names then None
        else if t.seq_names.(i) = reg then
          Some (bounds.(2 * i), bounds.((2 * i) + 1))
        else find (i + 1)
      in
      find 0

let iterations t = t.iterations
let wall_seconds t = t.seconds
