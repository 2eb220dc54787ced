type op =
  | Add
  | Mul
  | And
  | Or
  | Xor
  | Neg
  | Not
  | Abs
  | Divu
  | Divs
  | Remu
  | Rems
  | Shl
  | Shrl
  | Shra
  | Minu
  | Maxu
  | Mins
  | Maxs
  | Eq
  | Ne
  | Ltu
  | Leu
  | Gtu
  | Geu
  | Lts
  | Les
  | Gts
  | Ges
  | Mux
  | Zext
  | Sext

type t = { id : int; width : int; node : node }

and node =
  | Const of int
  | Var of string
  | Read of string * t
  | App of op * t list

exception Node_limit of int

(* ------------------------------------------------------------------ *)
(* Stage timing                                                         *)

module Stats = struct
  type t = {
    mutable normalize_s : float;
    mutable blast_s : float;
    mutable solve_s : float;
    mutable sat_calls : int;
    mutable conflicts : int;
  }

  let acc =
    { normalize_s = 0.0; blast_s = 0.0; solve_s = 0.0; sat_calls = 0;
      conflicts = 0 }

  let reset () =
    acc.normalize_s <- 0.0;
    acc.blast_s <- 0.0;
    acc.solve_s <- 0.0;
    acc.sat_calls <- 0;
    acc.conflicts <- 0

  let get () =
    {
      normalize_s = acc.normalize_s;
      blast_s = acc.blast_s;
      solve_s = acc.solve_s;
      sat_calls = acc.sat_calls;
      conflicts = acc.conflicts;
    }

  let count_sat ~conflicts =
    acc.sat_calls <- acc.sat_calls + 1;
    acc.conflicts <- acc.conflicts + conflicts

  let time stage f =
    let t0 = Sys.time () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Sys.time () -. t0 in
        match stage with
        | `Normalize -> acc.normalize_s <- acc.normalize_s +. dt
        | `Blast -> acc.blast_s <- acc.blast_s +. dt
        | `Solve -> acc.solve_s <- acc.solve_s +. dt)
      f
end

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                         *)

type key =
  | Kconst of int * int
  | Kvar of int * string
  | Kread of int * string * int
  | Kapp of int * op * int list

let table : (key, t) Hashtbl.t = Hashtbl.create 4096
let next_id = ref 0
let fresh = ref 0
let limit = ref None

let set_node_limit l =
  (* Clearing the memo only loses sharing with future terms, never
     soundness: ids stay globally unique, so id equality still implies
     structural equality. Clearing bounds memory across long campaigns. *)
  Hashtbl.reset table;
  fresh := 0;
  limit := l

let fresh_nodes () = !fresh

let key_of width node =
  match node with
  | Const v -> Kconst (width, v)
  | Var n -> Kvar (width, n)
  | Read (m, a) -> Kread (width, m, a.id)
  | App (op, args) -> Kapp (width, op, List.map (fun a -> a.id) args)

let mk width node =
  let k = key_of width node in
  match Hashtbl.find_opt table k with
  | Some t -> t
  | None ->
      incr fresh;
      (match !limit with
      | Some l when !fresh > l -> raise (Node_limit !fresh)
      | _ -> ());
      incr next_id;
      let t = { id = !next_id; width; node } in
      Hashtbl.replace table k t;
      t

let equal a b = a.id = b.id

(* ------------------------------------------------------------------ *)
(* Concrete semantics: the operator catalogue's reference path        *)

module Opkind = Operators.Opkind

(* The catalogue kind each term operator applies (n-ary AC operators
   fold the binary kind). *)
let kind_of_op = function
  | Add -> Opkind.(Bin Add)
  | Mul -> Opkind.(Bin Mul)
  | And -> Opkind.(Bin And)
  | Or -> Opkind.(Bin Or)
  | Xor -> Opkind.(Bin Xor)
  | Neg -> Opkind.(Un Neg)
  | Not -> Opkind.(Un Not)
  | Abs -> Opkind.(Un Abs)
  | Divu -> Opkind.(Bin Divu)
  | Divs -> Opkind.(Bin Divs)
  | Remu -> Opkind.(Bin Remu)
  | Rems -> Opkind.(Bin Rems)
  | Shl -> Opkind.(Bin Shl)
  | Shrl -> Opkind.(Bin Shrl)
  | Shra -> Opkind.(Bin Shra)
  | Minu -> Opkind.(Bin Minu)
  | Maxu -> Opkind.(Bin Maxu)
  | Mins -> Opkind.(Bin Mins)
  | Maxs -> Opkind.(Bin Maxs)
  | Eq -> Opkind.(Cmp Eq)
  | Ne -> Opkind.(Cmp Ne)
  | Ltu -> Opkind.(Cmp Ltu)
  | Leu -> Opkind.(Cmp Leu)
  | Gtu -> Opkind.(Cmp Gtu)
  | Geu -> Opkind.(Cmp Geu)
  | Lts -> Opkind.(Cmp Lts)
  | Les -> Opkind.(Cmp Les)
  | Gts -> Opkind.(Cmp Gts)
  | Ges -> Opkind.(Cmp Ges)
  | Mux -> Opkind.Mux
  | Zext -> Opkind.Zext
  | Sext -> Opkind.Sext

let is_ac = function Add | Mul | And | Or | Xor -> true | _ -> false

let apply_op op ~width args =
  match (kind_of_op op, args) with
  | Bin f, x :: xs when is_ac op -> List.fold_left (Opkind.bin_bitvec f) x xs
  | Bin f, [ a; b ] -> Opkind.bin_bitvec f a b
  | Cmp f, [ a; b ] -> Opkind.cmp_bitvec f a b
  | Un f, [ a ] -> Opkind.un_bitvec f a
  | Mux, sel :: ins ->
      let s = Bitvec.to_int sel in
      List.nth ins (min s (List.length ins - 1))
  | Zext, [ a ] -> Bitvec.resize a width
  | Sext, [ a ] -> Bitvec.sresize a width
  | _ -> invalid_arg "Ec.Term: operator arity"

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                   *)

let const ~width v =
  mk width (Const (Bitvec.to_int (Bitvec.create ~width v)))

let var ~width name = mk width (Var name)
let read ~width mem addr = mk width (Read (mem, addr))

let is_const t = match t.node with Const _ -> true | _ -> false
let const_val t = match t.node with Const v -> Some v | _ -> None
let bv t v = Bitvec.create ~width:t.width v

let sort_args = List.sort (fun a b -> compare a.id b.id)

(* One AC operator application: flatten nested same-op terms, fold the
   constants into one, elide identities, apply annihilators, cancel
   complementary pairs, sort by id. *)
let rec ac_app op width args =
  let args =
    List.concat_map
      (fun a ->
        match a.node with
        | App (o, xs) when o = op && a.width = width -> xs
        | _ -> [ a ])
      args
  in
  let consts, rest = List.partition is_const args in
  let neutral =
    match op with
    | Add | Or | Xor -> 0
    | Mul -> 1
    | And -> Bitvec.to_int (Bitvec.ones width)
    | _ -> assert false
  in
  let cval =
    List.fold_left
      (fun acc c ->
        match c.node with
        | Const v ->
            Bitvec.to_int
              (apply_op op ~width
                 [ Bitvec.create ~width acc; Bitvec.create ~width v ])
        | _ -> acc)
      neutral consts
  in
  let annihilated =
    match op with
    | Mul -> cval = 0
    | And -> cval = 0
    | Or -> cval = Bitvec.to_int (Bitvec.ones width)
    | _ -> false
  in
  if annihilated then const ~width cval
  else
    let rest =
      match op with
      | And | Or ->
          (* Idempotent: dedupe; complementary pair -> annihilator. *)
          let rest = List.sort_uniq (fun a b -> compare a.id b.id) rest in
          if
            List.exists
              (fun a ->
                match a.node with
                | App (Not, [ b ]) -> List.exists (equal b) rest
                | _ -> false)
              rest
          then
            [
              (if op = And then const ~width 0
               else const ~width (Bitvec.to_int (Bitvec.ones width)));
            ]
          else rest
      | Xor ->
          (* Self-inverse: equal pairs cancel. *)
          let sorted = sort_args rest in
          let rec cancel = function
            | a :: b :: tl when a.id = b.id -> cancel tl
            | a :: tl -> a :: cancel tl
            | [] -> []
          in
          cancel sorted
      | Add ->
          (* x + (-x) cancels. *)
          let rec cancel acc = function
            | [] -> List.rev acc
            | a :: tl -> (
                let negated b =
                  match b.node with
                  | App (Neg, [ c ]) -> equal c a
                  | _ -> (
                      match a.node with
                      | App (Neg, [ c ]) -> equal c b
                      | _ -> false)
                in
                match List.partition negated tl with
                | _b :: rest_b, keep -> cancel acc (keep @ rest_b)
                | [], _ -> cancel (a :: acc) tl)
          in
          cancel [] rest
      | _ -> rest
    in
    match (rest, cval = neutral) with
    | [], true -> const ~width neutral
    | [], false -> const ~width cval
    | [ x ], true -> x
    | xs, true -> mk width (App (op, sort_args xs))
    | xs, false -> mk width (App (op, sort_args (const ~width cval :: xs)))

and app op ~width args =
  match (op, args) with
  | (Add | Mul | And | Or | Xor), _ -> ac_app op width args
  | _ -> (
      (* Full constant folding first. *)
      match
        if List.for_all is_const args then
          Some
            (List.map
               (fun a ->
                 match a.node with Const v -> bv a v | _ -> assert false)
               args)
        else None
      with
      | Some cargs ->
          const ~width (Bitvec.to_int (apply_op op ~width cargs))
      | None -> app_nonconst op ~width args)

and app_nonconst op ~width args =
  match (op, args) with
  | Neg, [ { node = App (Neg, [ b ]); _ } ] -> b
  | Not, [ { node = App (Not, [ b ]); _ } ] -> b
  | (Divu | Divs), [ a; { node = Const 1; _ } ] -> a
  | (Remu | Rems), [ _; { node = Const 1; _ } ] -> const ~width 0
  | Shl, [ a; b ] -> (
      match const_val b with
      | Some k when k >= width -> const ~width 0
      | Some k -> ac_app Mul width [ a; const ~width (1 lsl k) ]
      | None -> pushdown op width args)
  | (Shrl | Shra), [ a; b ] -> (
      match const_val b with
      | Some 0 -> a
      | Some k when k >= width && op = Shrl -> const ~width 0
      | _ -> pushdown op width args)
  | Eq, [ a; b ] when equal a b -> const ~width:1 1
  | Ne, [ a; b ] when equal a b -> const ~width:1 0
  | (Ltu | Lts | Gtu | Gts), [ a; b ] when equal a b -> const ~width:1 0
  | (Leu | Les | Geu | Ges), [ a; b ] when equal a b -> const ~width:1 1
  | (Minu | Maxu | Mins | Maxs), [ a; b ] when equal a b -> a
  | Mux, sel :: ins -> (
      if ins = [] then invalid_arg "Ec.Term: mux without inputs"
      else
        match const_val sel with
        | Some v -> List.nth ins (min v (List.length ins - 1))
        | None ->
            let first = List.hd ins in
            if List.for_all (equal first) ins then first
            else mk width (App (Mux, sel :: ins)))
  | Zext, [ a ] when a.width = width -> a
  | Sext, [ a ] when a.width = width -> a
  | Zext, [ { node = App (Zext, [ b ]); width = wi; _ } ] when width >= wi ->
      app Zext ~width [ b ]
  | _ -> pushdown op width args

(* Bounded mux pushdown: a non-AC operator applied to a small selection
   mux and otherwise-constant operands distributes into the arms, where
   constant folding usually collapses them — the shape pooled shared
   units leave behind. *)
and pushdown op width args =
  let small t =
    match t.node with
    | App (Mux, sel :: ins) when List.length ins <= 8 -> Some (sel, ins)
    | _ -> None
  in
  match args with
  | [ a ] -> (
      match small a with
      | Some (sel, ins) ->
          app Mux ~width (sel :: List.map (fun i -> app op ~width [ i ]) ins)
      | None -> mk width (App (op, args)))
  | [ a; b ] -> (
      match (small a, is_const b, is_const a, small b) with
      | Some (sel, ins), true, _, _ ->
          app Mux ~width
            (sel :: List.map (fun i -> app op ~width [ i; b ]) ins)
      | _, _, true, Some (sel, ins) ->
          app Mux ~width
            (sel :: List.map (fun i -> app op ~width [ a; i ]) ins)
      | _ -> mk width (App (op, args)))
  | _ -> mk width (App (op, args))

let op_of_kind : Opkind.t -> op option = function
  | Bin Add -> Some Add
  | Bin Sub -> None (* callers rewrite sub as Add [a; Neg b] *)
  | Bin Mul -> Some Mul
  | Bin Divu -> Some Divu
  | Bin Divs -> Some Divs
  | Bin Remu -> Some Remu
  | Bin Rems -> Some Rems
  | Bin And -> Some And
  | Bin Or -> Some Or
  | Bin Xor -> Some Xor
  | Bin Shl -> Some Shl
  | Bin Shrl -> Some Shrl
  | Bin Shra -> Some Shra
  | Bin Minu -> Some Minu
  | Bin Maxu -> Some Maxu
  | Bin Mins -> Some Mins
  | Bin Maxs -> Some Maxs
  | Cmp Eq -> Some Eq
  | Cmp Ne -> Some Ne
  | Cmp Ltu -> Some Ltu
  | Cmp Leu -> Some Leu
  | Cmp Gtu -> Some Gtu
  | Cmp Geu -> Some Geu
  | Cmp Lts -> Some Lts
  | Cmp Les -> Some Les
  | Cmp Gts -> Some Gts
  | Cmp Ges -> Some Ges
  | Un Not -> Some Not
  | Un Neg -> Some Neg
  | Un Abs -> Some Abs
  | Un Pass -> None (* identity *)
  | Mux -> Some Mux
  | Zext -> Some Zext
  | Sext -> Some Sext
  | Const | Reg | Counter | Sram | Rom | Probe | Check | Stop -> None

(* ------------------------------------------------------------------ *)
(* Traversal                                                            *)

let fold_nodes f acc t =
  let visited = Hashtbl.create 64 in
  let rec go acc t =
    if Hashtbl.mem visited t.id then acc
    else begin
      Hashtbl.replace visited t.id ();
      let acc = f acc t in
      match t.node with
      | Const _ | Var _ -> acc
      | Read (_, a) -> go acc a
      | App (_, args) -> List.fold_left go acc args
    end
  in
  go acc t

let vars t =
  List.sort_uniq compare
    (fold_nodes
       (fun acc n ->
         match n.node with Var v -> (v, n.width) :: acc | _ -> acc)
       [] t)

let reads t =
  List.rev
    (fold_nodes
       (fun acc n ->
         match n.node with
         | Read (m, a) -> (m, a, n.width) :: acc
         | _ -> acc)
       [] t)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)

type env = {
  lookup : string -> width:int -> Bitvec.t;
  fetch : string -> addr:Bitvec.t -> width:int -> Bitvec.t;
}

let sample_env k =
  {
    lookup = (fun name ~width -> Sampler.value ~width name k);
    fetch =
      (fun name ~addr ~width ->
        Sampler.mem ~width name (Bitvec.to_int addr) k);
  }

let eval env t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some v -> v
    | None ->
        let v =
          match t.node with
          | Const v -> Bitvec.create ~width:t.width v
          | Var name -> env.lookup name ~width:t.width
          | Read (m, a) -> env.fetch m ~addr:(go a) ~width:t.width
          | App (op, args) -> apply_op op ~width:t.width (List.map go args)
        in
        Hashtbl.replace memo t.id v;
        v
  in
  go t

(* ------------------------------------------------------------------ *)

let op_name op = Opkind.to_string (kind_of_op op)

let rec to_string t =
  match t.node with
  | Const v -> Printf.sprintf "%d'd%d" t.width v
  | Var n -> n
  | Read (m, a) -> Printf.sprintf "%s[%s]" m (to_string a)
  | App (op, args) ->
      Printf.sprintf "(%s %s)" (op_name op)
        (String.concat " " (List.map to_string args))
