module T = Term

type witness = {
  assignment : (string * Bitvec.t) list;
  cells : ((string * int) * Bitvec.t) list;
  left : Bitvec.t;
  right : Bitvec.t;
  via : [ `Sample of int | `Solver ];
}

type reason = { cause : string; conflicts : int }

type outcome =
  | Proved of [ `Structural | `Solver ]
  | Refuted of witness
  | Unknown of reason

let witness_to_string w =
  let cap = 16 in
  let parts =
    List.map
      (fun (n, v) -> Printf.sprintf "%s=%s" n (Bitvec.to_string v))
      w.assignment
    @ List.map
        (fun ((m, a), v) ->
          Printf.sprintf "%s[%d]=%s" m a (Bitvec.to_string v))
        w.cells
  in
  let parts =
    if List.length parts <= cap then parts
    else List.filteri (fun i _ -> i < cap) parts @ [ "..." ]
  in
  Printf.sprintf "%s -> %s vs %s (%s)"
    (if parts = [] then "any input" else String.concat ", " parts)
    (Bitvec.to_string w.left) (Bitvec.to_string w.right)
    (match w.via with
    | `Sample k -> Printf.sprintf "sample %d" k
    | `Solver -> "solver model")

(* A witness is only ever built from an environment both terms were
   just replayed through, so the recorded values are the replayed
   values — the self-check is part of construction. *)
let mk_witness ~via env a b va vb =
  let names = List.sort_uniq compare (T.vars a @ T.vars b) in
  let assignment =
    List.map (fun (n, w) -> (n, env.T.lookup n ~width:w)) names
  in
  let cells = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (m, addr, w) ->
      let av = Bitvec.to_int (T.eval env addr) in
      if not (Hashtbl.mem cells (m, av)) then begin
        Hashtbl.replace cells (m, av)
          (env.T.fetch m ~addr:(T.eval env addr) ~width:w);
        order := (m, av) :: !order
      end)
    (T.reads a @ T.reads b);
  let cells =
    List.rev_map (fun k -> (k, Hashtbl.find cells k)) !order
  in
  { assignment; cells; left = va; right = vb; via }

let sample_hunt ~samples a b =
  let rec go k =
    if k >= samples then None
    else
      let env = T.sample_env k in
      let va = T.eval env a and vb = T.eval env b in
      if Bitvec.equal va vb then go (k + 1)
      else Some (mk_witness ~via:(`Sample k) env a b va vb)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Bit blasting (Tseitin). Words are literal arrays, LSB first.         *)

type bctx = {
  sat : Sat.t;
  tt : int;  (* the always-true literal *)
  bits : (int, int array) Hashtbl.t;  (* term id -> word *)
  vbits : (string * int, int array) Hashtbl.t;
  sites : (string, (int array * int array) list ref) Hashtbl.t;
      (* memory -> (address word, value word) per read site *)
}

let nv c = Sat.new_var c.sat
let cl c lits = Sat.add_clause c.sat lits

let b_and c a b =
  if a = -c.tt || b = -c.tt then -c.tt
  else if a = c.tt then b
  else if b = c.tt then a
  else if a = b then a
  else if a = -b then -c.tt
  else begin
    let o = nv c in
    cl c [ -o; a ];
    cl c [ -o; b ];
    cl c [ -a; -b; o ];
    o
  end

let b_or c a b = -b_and c (-a) (-b)

let b_xor c a b =
  if a = c.tt then -b
  else if a = -c.tt then b
  else if b = c.tt then -a
  else if b = -c.tt then a
  else if a = b then -c.tt
  else if a = -b then c.tt
  else begin
    let o = nv c in
    cl c [ -a; -b; -o ];
    cl c [ a; b; -o ];
    cl c [ a; -b; o ];
    cl c [ -a; b; o ];
    o
  end

let b_ite c s a b =
  if s = c.tt then a
  else if s = -c.tt then b
  else if a = b then a
  else b_or c (b_and c s a) (b_and c (-s) b)

let w_const c ~width v =
  Array.init width (fun i -> if (v lsr i) land 1 = 1 then c.tt else -c.tt)

let w_ite c s a b = Array.map2 (b_ite c s) a b
let w_not a = Array.map (fun l -> -l) a

let full_add c a b cin =
  let s = b_xor c (b_xor c a b) cin in
  let co = b_or c (b_and c a b) (b_or c (b_and c a cin) (b_and c b cin)) in
  (s, co)

let w_add_c c a b cin =
  let w = Array.length a in
  let out = Array.make w 0 in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, co = full_add c a.(i) b.(i) !carry in
    out.(i) <- s;
    carry := co
  done;
  (out, !carry)

let w_add c a b = fst (w_add_c c a b (-c.tt))
let w_neg c a = fst (w_add_c c (w_not a) (w_const c ~width:(Array.length a) 0) c.tt)

(* Carry-out of [a + ~b + 1], i.e. unsigned a >= b. *)
let w_uge c a b = snd (w_add_c c a (w_not b) c.tt)
let w_ult c a b = -w_uge c a b
let w_ule c a b = w_uge c b a

let w_eq c a b =
  let acc = ref c.tt in
  Array.iteri (fun i x -> acc := b_and c !acc (-b_xor c x b.(i))) a;
  !acc

let flip_msb a =
  let a = Array.copy a in
  let m = Array.length a - 1 in
  a.(m) <- -a.(m);
  a

let w_slt c a b = w_ult c (flip_msb a) (flip_msb b)
let w_sle c a b = w_ule c (flip_msb a) (flip_msb b)

let w_mul c a b =
  let w = Array.length a in
  let acc = ref (w_const c ~width:w 0) in
  for i = 0 to w - 1 do
    let partial =
      Array.init w (fun j ->
          if j < i then -c.tt else b_and c a.(j - i) b.(i))
    in
    acc := w_add c !acc partial
  done;
  !acc

(* Barrel shifter with >=width saturation, matching Bitvec's
   fully-shifted convention. *)
let w_shift c dir a amt =
  let w = Array.length a in
  let res = ref (Array.copy a) in
  let nstages = ref 0 in
  while 1 lsl !nstages < w do
    let j = !nstages in
    let k = 1 lsl j in
    let cur = !res in
    let shifted =
      match dir with
      | `Shl -> Array.init w (fun i -> if i < k then -c.tt else cur.(i - k))
      | `Shrl ->
          Array.init w (fun i -> if i + k < w then cur.(i + k) else -c.tt)
      | `Shra ->
          Array.init w (fun i ->
              if i + k < w then cur.(i + k) else cur.(w - 1))
    in
    let bit = if j < Array.length amt then amt.(j) else -c.tt in
    res := w_ite c bit shifted cur;
    incr nstages
  done;
  (* amount >= width: any bit beyond the stages, or the staged bits
     numerically reaching the width (non-power-of-two widths). *)
  let high = ref (-c.tt) in
  for j = !nstages to Array.length amt - 1 do
    high := b_or c !high amt.(j)
  done;
  let ge =
    if 1 lsl !nstages = w && !nstages > 0 then !high
    else if !nstages = 0 then
      (* width 1: any nonzero amount saturates *)
      Array.fold_left (b_or c) (-c.tt) amt
    else begin
      let low = Array.sub amt 0 (min !nstages (Array.length amt)) in
      let low =
        if Array.length low = !nstages then low
        else
          Array.init !nstages (fun i ->
              if i < Array.length low then low.(i) else -c.tt)
      in
      b_or c !high (w_uge c low (w_const c ~width:!nstages w))
    end
  in
  let full =
    match dir with
    | `Shl | `Shrl -> Array.make w (-c.tt)
    | `Shra -> Array.make w a.(w - 1)
  in
  w_ite c ge full !res

(* Restoring division at width+1; for a zero divisor the compare is
   always true and the subtraction subtracts nothing, so the circuit
   naturally yields quotient all-ones and remainder = dividend — the
   documented Bitvec convention. *)
let w_udivmod c a d =
  let w = Array.length a in
  let d1 = Array.append d [| -c.tt |] in
  let r = ref (w_const c ~width:(w + 1) 0) in
  let q = Array.make w 0 in
  for i = w - 1 downto 0 do
    let cur = !r in
    let r' = Array.init (w + 1) (fun j -> if j = 0 then a.(i) else cur.(j - 1)) in
    let ge = w_uge c r' d1 in
    q.(i) <- ge;
    let diff = fst (w_add_c c r' (w_not d1) c.tt) in
    r := w_ite c ge diff r'
  done;
  (q, Array.sub !r 0 w)

let w_is_zero c a = -Array.fold_left (b_or c) (-c.tt) a

let w_sdivmod c a d =
  let w = Array.length a in
  let xs = a.(w - 1) and ds = d.(w - 1) in
  let ax = w_ite c xs (w_neg c a) a in
  let ad = w_ite c ds (w_neg c d) d in
  let uq, ur = w_udivmod c ax ad in
  let q0 = w_ite c (b_xor c xs ds) (w_neg c uq) uq in
  let r0 = w_ite c xs (w_neg c ur) ur in
  let dz = w_is_zero c d in
  (* x / 0 = all-ones, x mod 0 = x; min_int / -1 wraps through the
     unsigned path by itself. *)
  (w_ite c dz (Array.make w c.tt) q0, w_ite c dz a r0)

let rec blast c (t : T.t) =
  match Hashtbl.find_opt c.bits t.T.id with
  | Some b -> b
  | None ->
      let b = blast_fresh c t in
      Hashtbl.replace c.bits t.T.id b;
      b

and blast_fresh c (t : T.t) =
  let w = t.T.width in
  match t.T.node with
  | T.Const v -> w_const c ~width:w v
  | T.Var n -> (
      match Hashtbl.find_opt c.vbits (n, w) with
      | Some b -> b
      | None ->
          let b = Array.init w (fun _ -> nv c) in
          Hashtbl.replace c.vbits (n, w) b;
          b)
  | T.Read (m, addr) ->
      let ab = blast c addr in
      let vb = Array.init w (fun _ -> nv c) in
      let prev =
        match Hashtbl.find_opt c.sites m with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.replace c.sites m r;
            r
      in
      (* Ackermann congruence: same address => same value, so models
         are realizable as a concrete memory and UNSAT quantifies over
         all memories. *)
      List.iter
        (fun (ab2, vb2) ->
          if Array.length vb2 = w then begin
            let wa = max (Array.length ab) (Array.length ab2) in
            let ext x =
              Array.init wa (fun i ->
                  if i < Array.length x then x.(i) else -c.tt)
            in
            let ae = w_eq c (ext ab) (ext ab2) in
            Array.iteri
              (fun i v1 ->
                cl c [ -ae; -v1; vb2.(i) ];
                cl c [ -ae; v1; -vb2.(i) ])
              vb
          end)
        !prev;
      prev := (ab, vb) :: !prev;
      vb
  | T.App (op, args) -> (
      let bs = List.map (blast c) args in
      match (op, bs) with
      | T.Add, x :: xs -> List.fold_left (w_add c) x xs
      | T.Mul, x :: xs -> List.fold_left (w_mul c) x xs
      | T.And, x :: xs ->
          List.fold_left (fun a b -> Array.map2 (b_and c) a b) x xs
      | T.Or, x :: xs ->
          List.fold_left (fun a b -> Array.map2 (b_or c) a b) x xs
      | T.Xor, x :: xs ->
          List.fold_left (fun a b -> Array.map2 (b_xor c) a b) x xs
      | T.Neg, [ a ] -> w_neg c a
      | T.Not, [ a ] -> w_not a
      | T.Abs, [ a ] -> w_ite c a.(w - 1) (w_neg c a) a
      | T.Divu, [ a; b ] -> fst (w_udivmod c a b)
      | T.Remu, [ a; b ] -> snd (w_udivmod c a b)
      | T.Divs, [ a; b ] -> fst (w_sdivmod c a b)
      | T.Rems, [ a; b ] -> snd (w_sdivmod c a b)
      | T.Shl, [ a; b ] -> w_shift c `Shl a b
      | T.Shrl, [ a; b ] -> w_shift c `Shrl a b
      | T.Shra, [ a; b ] -> w_shift c `Shra a b
      | T.Minu, [ a; b ] -> w_ite c (w_ule c a b) a b
      | T.Maxu, [ a; b ] -> w_ite c (w_uge c a b) a b
      | T.Mins, [ a; b ] -> w_ite c (w_sle c a b) a b
      | T.Maxs, [ a; b ] -> w_ite c (w_sle c a b) b a
      | T.Eq, [ a; b ] -> [| w_eq c a b |]
      | T.Ne, [ a; b ] -> [| -w_eq c a b |]
      | T.Ltu, [ a; b ] -> [| w_ult c a b |]
      | T.Leu, [ a; b ] -> [| w_ule c a b |]
      | T.Gtu, [ a; b ] -> [| w_ult c b a |]
      | T.Geu, [ a; b ] -> [| w_uge c a b |]
      | T.Lts, [ a; b ] -> [| w_slt c a b |]
      | T.Les, [ a; b ] -> [| w_sle c a b |]
      | T.Gts, [ a; b ] -> [| w_slt c b a |]
      | T.Ges, [ a; b ] -> [| w_sle c b a |]
      | T.Mux, sel :: ins ->
          let n = List.length ins in
          let ins = Array.of_list ins in
          let sw = Array.length sel in
          let acc = ref ins.(n - 1) in
          for i = n - 2 downto 0 do
            (* Inputs beyond the select's range are unreachable (the
               clamp picks the last input first). *)
            if sw >= 62 || i < 1 lsl sw then
              acc :=
                w_ite c (w_eq c sel (w_const c ~width:sw i)) ins.(i) !acc
          done;
          !acc
      | T.Zext, [ a ] ->
          Array.init w (fun i ->
              if i < Array.length a then a.(i) else -c.tt)
      | T.Sext, [ a ] ->
          let la = Array.length a in
          Array.init w (fun i -> if i < la then a.(i) else a.(la - 1))
      | _ -> invalid_arg "Ec.Decide: operator arity")

(* ------------------------------------------------------------------ *)

let solver_stage ~max_conflicts a b =
  let c =
    T.Stats.time `Blast (fun () ->
        let sat = Sat.create () in
        let tt = Sat.new_var sat in
        Sat.add_clause sat [ tt ];
        let c =
          {
            sat;
            tt;
            bits = Hashtbl.create 256;
            vbits = Hashtbl.create 32;
            sites = Hashtbl.create 8;
          }
        in
        let ba = blast c a and bb = blast c b in
        (* Assert the disequality: some bit position differs. *)
        Sat.add_clause sat
          (Array.to_list (Array.mapi (fun i x -> b_xor c x bb.(i)) ba));
        c)
  in
  let res = T.Stats.time `Solve (fun () -> Sat.solve ~max_conflicts c.sat) in
  T.Stats.count_sat ~conflicts:(Sat.conflicts c.sat);
  match res with
  | Sat.Unsat -> Proved `Solver
  | Sat.Undecided n ->
      Unknown { cause = Printf.sprintf "max_conflicts=%d" max_conflicts;
                conflicts = n }
  | Sat.Sat model ->
      let bitval l =
        if l = c.tt then true
        else if l = -c.tt then false
        else if l > 0 then model l
        else not (model (-l))
      in
      let word bits =
        let v = ref 0 in
        Array.iteri (fun i l -> if bitval l then v := !v lor (1 lsl i)) bits;
        !v
      in
      let lookup name ~width =
        match Hashtbl.find_opt c.vbits (name, width) with
        | Some bits -> Bitvec.create ~width (word bits)
        | None -> Bitvec.zero width
      in
      let cells = Hashtbl.create 16 in
      Hashtbl.iter
        (fun m r ->
          List.iter
            (fun (ab, vb) ->
              let key = (m, word ab) in
              if not (Hashtbl.mem cells key) then
                Hashtbl.replace cells key
                  (Bitvec.create ~width:(Array.length vb) (word vb)))
            !r)
        c.sites;
      let fetch m ~addr ~width =
        match Hashtbl.find_opt cells (m, Bitvec.to_int addr) with
        | Some v -> Bitvec.resize v width
        | None -> Bitvec.zero width
      in
      let env = { T.lookup; fetch } in
      let va = T.eval env a and vb = T.eval env b in
      if Bitvec.equal va vb then
        (* The model does not replay to a disagreement — never report a
           refutation the concrete semantics cannot reproduce. *)
        Unknown
          { cause = "solver model failed concrete replay";
            conflicts = Sat.conflicts c.sat }
      else Refuted (mk_witness ~via:`Solver env a b va vb)

let decide ?(samples = 17) ?(max_conflicts = 100_000) a b =
  if T.(a.width <> b.width) then
    raise
      (Bitvec.Width_error
         (Printf.sprintf "Ec.decide: operand widths differ (%d vs %d)"
            T.(a.width) T.(b.width)))
  else if T.equal a b then Proved `Structural
  else
    match sample_hunt ~samples a b with
    | Some w -> Refuted w
    | None -> solver_stage ~max_conflicts a b
