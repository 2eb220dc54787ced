exception Spec_error of string

type direction = In | Out

type port = { port_name : string; direction : direction; port_width : int }
type t = { kind : Opkind.t; ports : port list; sequential : bool }
type params = (string * string) list

let fail fmt = Format.kasprintf (fun s -> raise (Spec_error s)) fmt
let failf fmt = fail fmt

let param_opt params key = List.assoc_opt key params

let param_int_opt params key =
  match param_opt params key with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Some i
      | None -> fail "parameter %s=%S is not an integer" key v)

let param_int params key ~default = Option.value (param_int_opt params key) ~default
let param_string params key ~default = Option.value (param_opt params key) ~default

let require_int params ~kind key =
  match param_int_opt params key with
  | Some i -> i
  | None -> fail "operator kind %s requires integer parameter %S" kind key

let require_string params ~kind key =
  match param_opt params key with
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

let lookup ~kind ~width ~params =
  check_width kind width;
  let op =
    match Opkind.of_string kind with
    | Some op -> op
    | None -> fail "unknown operator kind %S" kind
  in
  let comb ports = { kind = op; ports; sequential = false } in
  let seq ports = { kind = op; ports; sequential = true } in
  match op with
  | Bin _ -> comb [ in_ "a" width; in_ "b" width; out "y" width ]
  | Cmp _ -> comb [ in_ "a" width; in_ "b" width; out "y" 1 ]
  | Un _ -> comb [ in_ "a" width; out "y" width ]
  | Const ->
      let (_ : int) = require_int params ~kind "value" in
      comb [ out "y" width ]
  | Zext | Sext ->
      let from = require_int params ~kind "from" in
      check_width (kind ^ ".from") from;
      comb [ in_ "a" from; out "y" width ]
  | Mux ->
      let n = param_int params "inputs" ~default:2 in
      if n < 2 then fail "mux needs at least 2 inputs, got %d" n;
      let ins = List.init n (fun i -> in_ (Printf.sprintf "in%d" i) width) in
      comb (ins @ [ in_ "sel" (sel_width n); out "y" width ])
  | Reg -> seq [ in_ "d" width; in_ "en" 1; out "q" width ]
  | Counter -> seq [ in_ "en" 1; in_ "load" 1; in_ "d" width; out "q" width ]
  | Sram ->
      let (_ : string) = require_string params ~kind "memory" in
      let addr_width = require_int params ~kind "addr-width" in
      check_width "sram.addr" addr_width;
      seq
        [
          in_ "addr" addr_width;
          in_ "din" width;
          in_ "we" 1;
          out "dout" width;
        ]
  | Rom ->
      let (_ : string) = require_string params ~kind "memory" in
      let addr_width = require_int params ~kind "addr-width" in
      check_width "rom.addr" addr_width;
      comb [ in_ "addr" addr_width; out "dout" width ]
  | Probe -> comb [ in_ "a" width ]
  | Check ->
      (* Clocked: samples (en, a) on the rising edge, so combinational
         settling transients are never observed. *)
      let (_ : int) = require_int params ~kind "value" in
      seq [ in_ "a" width; in_ "en" 1 ]
  | Stop -> comb [ in_ "en" 1 ]

let all_kinds = List.sort compare (List.map Opkind.to_string Opkind.all)
let is_known kind = Option.is_some (Opkind.of_string kind)
