exception Spec_error of string

type direction = In | Out

type port = { port_name : string; direction : direction; port_width : int }
type action = Record | Halt

type params = {
  value : int;
  from : int;
  inputs : int;
  init : int option;
  step : int;
  memory : string;
  addr_width : int;
  size : int;
  action : action;
  reason : string option;
}

type t = { kind : Opkind.t; params : params; ports : port list; sequential : bool }
type attrs = (string * string) list

let fail fmt = Format.kasprintf (fun s -> raise (Spec_error s)) fmt

let int_opt attrs key =
  match List.assoc_opt key attrs with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Some i
      | None -> fail "parameter %s=%S is not an integer" key v)

let require_int attrs ~kind key =
  match int_opt attrs key with
  | Some i -> i
  | None -> fail "operator kind %s requires integer parameter %S" kind key

let require_string attrs ~kind key =
  match List.assoc_opt key attrs with
  | Some s -> s
  | None -> fail "operator kind %s requires parameter %S" kind key

let sel_width n =
  if n < 2 then 1
  else
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    bits (n - 1) 0

let in_ name w = { port_name = name; direction = In; port_width = w }
let out name w = { port_name = name; direction = Out; port_width = w }

let check_width kind width =
  if width < 1 || width > Bitvec.max_width then
    fail "operator %s: invalid width %d" kind width

let defaults =
  {
    value = 0;
    from = 0;
    inputs = 2;
    init = None;
    step = 1;
    memory = "";
    addr_width = 0;
    size = 0;
    action = Record;
    reason = None;
  }

(* A memory port's backing store: the name, the address width and the
   word count, which must fit the address space. *)
let memory_params attrs ~kind =
  let memory = require_string attrs ~kind "memory" in
  let addr_width = require_int attrs ~kind "addr-width" in
  check_width (kind ^ ".addr") addr_width;
  let size = require_int attrs ~kind "size" in
  if size < 1 || (addr_width < Sys.int_size - 1 && size > 1 lsl addr_width) then
    fail "%s size %d is outside 1..2^%d" kind size addr_width;
  { defaults with memory; addr_width; size }

let lookup ~kind:op ~width attrs =
  let kind = Opkind.to_string op in
  check_width kind width;
  let spec ~sequential ?(params = defaults) ports =
    { kind = op; params; ports; sequential }
  in
  let comb = spec ~sequential:false and seq = spec ~sequential:true in
  match op with
  | Bin _ -> comb [ in_ "a" width; in_ "b" width; out "y" width ]
  | Cmp _ -> comb [ in_ "a" width; in_ "b" width; out "y" 1 ]
  | Un _ -> comb [ in_ "a" width; out "y" width ]
  | Const ->
      let value = require_int attrs ~kind "value" in
      comb ~params:{ defaults with value } [ out "y" width ]
  | Zext | Sext ->
      let from = require_int attrs ~kind "from" in
      check_width (kind ^ ".from") from;
      comb ~params:{ defaults with from } [ in_ "a" from; out "y" width ]
  | Mux ->
      let n = Option.value (int_opt attrs "inputs") ~default:2 in
      if n < 2 then fail "mux needs at least 2 inputs, got %d" n;
      let ins = List.init n (fun i -> in_ (Printf.sprintf "in%d" i) width) in
      comb ~params:{ defaults with inputs = n }
        (ins @ [ in_ "sel" (sel_width n); out "y" width ])
  | Reg ->
      seq ~params:{ defaults with init = int_opt attrs "init" }
        [ in_ "d" width; in_ "en" 1; out "q" width ]
  | Counter ->
      let step = Option.value (int_opt attrs "step") ~default:1 in
      seq ~params:{ defaults with step }
        [ in_ "en" 1; in_ "load" 1; in_ "d" width; out "q" width ]
  | Sram ->
      let params = memory_params attrs ~kind in
      seq ~params
        [
          in_ "addr" params.addr_width;
          in_ "din" width;
          in_ "we" 1;
          out "dout" width;
        ]
  | Rom ->
      let params = memory_params attrs ~kind in
      comb ~params [ in_ "addr" params.addr_width; out "dout" width ]
  | Probe -> comb [ in_ "a" width ]
  | Check ->
      (* Clocked: samples (en, a) on the rising edge, so combinational
         settling transients are never observed. *)
      let value = require_int attrs ~kind "value" in
      let action =
        match List.assoc_opt "action" attrs with
        | None | Some "record" -> Record
        | Some "stop" -> Halt
        | Some a -> fail "check action %S is neither \"record\" nor \"stop\"" a
      in
      seq ~params:{ defaults with value; action } [ in_ "a" width; in_ "en" 1 ]
  | Stop ->
      comb ~params:{ defaults with reason = List.assoc_opt "reason" attrs }
        [ in_ "en" 1 ]
