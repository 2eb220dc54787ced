type binop =
  | Add | Sub | Mul | Divu | Divs | Remu | Rems | And | Or | Xor
  | Shl | Shrl | Shra | Minu | Maxu | Mins | Maxs

type cmpop = Eq | Ne | Ltu | Leu | Gtu | Geu | Lts | Les | Gts | Ges
type unop = Not | Neg | Pass | Abs

type t =
  | Bin of binop
  | Cmp of cmpop
  | Un of unop
  | Const
  | Zext
  | Sext
  | Mux
  | Reg
  | Counter
  | Sram
  | Rom
  | Probe
  | Check
  | Stop

(* --- the name table ------------------------------------------------------ *)

let names =
  [ (Bin Add, "add"); (Bin Sub, "sub"); (Bin Mul, "mul"); (Bin Divu, "divu");
    (Bin Divs, "divs"); (Bin Remu, "remu"); (Bin Rems, "rems");
    (Bin And, "and"); (Bin Or, "or"); (Bin Xor, "xor"); (Bin Shl, "shl");
    (Bin Shrl, "shrl"); (Bin Shra, "shra"); (Bin Minu, "minu");
    (Bin Maxu, "maxu"); (Bin Mins, "mins"); (Bin Maxs, "maxs");
    (Cmp Eq, "eq"); (Cmp Ne, "ne"); (Cmp Ltu, "ltu"); (Cmp Leu, "leu");
    (Cmp Gtu, "gtu"); (Cmp Geu, "geu"); (Cmp Lts, "lts"); (Cmp Les, "les");
    (Cmp Gts, "gts"); (Cmp Ges, "ges");
    (Un Not, "not"); (Un Neg, "neg"); (Un Pass, "pass"); (Un Abs, "abs");
    (Const, "const"); (Zext, "zext"); (Sext, "sext"); (Mux, "mux");
    (Reg, "reg"); (Counter, "counter"); (Sram, "sram"); (Rom, "rom");
    (Probe, "probe"); (Check, "check"); (Stop, "stop") ]

let all = List.map fst names
let to_string k = List.assoc k names
let by_name = Hashtbl.of_seq (Seq.map (fun (k, n) -> (n, k)) (List.to_seq names))
let of_string s = Hashtbl.find_opt by_name s

let is_comb = function
  | Reg | Counter | Check | Stop | Probe -> false
  | Bin _ | Cmp _ | Un _ | Const | Zext | Sext | Mux | Sram | Rom -> true

let is_test_aid = function
  | Probe | Check | Stop -> true
  | Bin _ | Cmp _ | Un _ | Const | Zext | Sext | Mux | Reg | Counter | Sram | Rom
    ->
      false

(* --- reference semantics ------------------------------------------------- *)

let bin_bitvec = function
  | Add -> Bitvec.add
  | Sub -> Bitvec.sub
  | Mul -> Bitvec.mul
  | Divu -> Bitvec.udiv
  | Divs -> Bitvec.sdiv
  | Remu -> Bitvec.urem
  | Rems -> Bitvec.srem
  | And -> Bitvec.logand
  | Or -> Bitvec.logor
  | Xor -> Bitvec.logxor
  | Shl -> fun a b -> Bitvec.shift_left a (Bitvec.to_int b)
  | Shrl -> fun a b -> Bitvec.shift_right_logical a (Bitvec.to_int b)
  | Shra -> fun a b -> Bitvec.shift_right_arith a (Bitvec.to_int b)
  | Minu -> fun a b -> if Bitvec.to_int a <= Bitvec.to_int b then a else b
  | Maxu -> fun a b -> if Bitvec.to_int a >= Bitvec.to_int b then a else b
  | Mins -> fun a b -> if Bitvec.to_signed a <= Bitvec.to_signed b then a else b
  | Maxs -> fun a b -> if Bitvec.to_signed a >= Bitvec.to_signed b then a else b

let cmp_bitvec = function
  | Eq -> Bitvec.eq
  | Ne -> Bitvec.ne
  | Ltu -> Bitvec.ult
  | Leu -> Bitvec.ule
  | Gtu -> Bitvec.ugt
  | Geu -> Bitvec.uge
  | Lts -> Bitvec.slt
  | Les -> Bitvec.sle
  | Gts -> Bitvec.sgt
  | Ges -> Bitvec.sge

let un_bitvec = function
  | Not -> Bitvec.lognot
  | Neg -> Bitvec.neg
  | Pass -> Fun.id
  | Abs -> fun a -> if Bitvec.msb a then Bitvec.neg a else a

(* --- masked-int fast path ------------------------------------------------ *)

(* Exact int-level replicas of the reference functions above. *)

let mask w = if w = Bitvec.max_width then -1 lsr 1 else (1 lsl w) - 1

let to_signed w v =
  if (v lsr (w - 1)) land 1 = 1 then v - (mask w + 1) else v

let bin_int ~width:w op =
  let m = mask w in
  let sgn v = to_signed w v in
  match op with
  | Add -> fun a b -> (a + b) land m
  | Sub -> fun a b -> (a - b) land m
  | Mul -> fun a b -> (a * b) land m
  | Divu -> fun a b -> if b = 0 then m else a / b
  | Remu -> fun a b -> if b = 0 then a else a mod b
  | Divs -> fun a b -> if b = 0 then m else sgn a / sgn b land m
  | Rems -> fun a b -> if b = 0 then a else sgn a mod sgn b land m
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl -> fun a b -> if b >= w then 0 else (a lsl b) land m
  | Shrl -> fun a b -> if b >= w then 0 else a lsr b
  | Shra ->
      fun a b ->
        let n = min b w in
        sgn a asr min n (Bitvec.max_width - 1) land m
  | Minu -> fun a b -> if a <= b then a else b
  | Maxu -> fun a b -> if a >= b then a else b
  | Mins -> fun a b -> if sgn a <= sgn b then a else b
  | Maxs -> fun a b -> if sgn a >= sgn b then a else b

let cmp_int ~width:w op =
  let sgn v = to_signed w v in
  match op with
  | Eq -> fun a b -> if a = b then 1 else 0
  | Ne -> fun a b -> if a <> b then 1 else 0
  | Ltu -> fun a b -> if a < b then 1 else 0
  | Leu -> fun a b -> if a <= b then 1 else 0
  | Gtu -> fun a b -> if a > b then 1 else 0
  | Geu -> fun a b -> if a >= b then 1 else 0
  | Lts -> fun a b -> if sgn a < sgn b then 1 else 0
  | Les -> fun a b -> if sgn a <= sgn b then 1 else 0
  | Gts -> fun a b -> if sgn a > sgn b then 1 else 0
  | Ges -> fun a b -> if sgn a >= sgn b then 1 else 0

let un_int ~width:w op =
  let m = mask w in
  match op with
  | Not -> fun a -> lnot a land m
  | Neg -> fun a -> -a land m
  | Pass -> Fun.id
  | Abs -> fun a -> if (a lsr (w - 1)) land 1 = 1 then -a land m else a
