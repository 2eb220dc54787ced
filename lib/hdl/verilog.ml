module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec

let sanitize name =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '_'
      then c
      else '_')
    name

let range w = if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1)

(* Wire carrying an operator output port. *)
let port_wire inst port = Printf.sprintf "w_%s_%s" (sanitize inst) (sanitize port)

let all_ones w = Printf.sprintf "{%d{1'b1}}" w

let datapath (dp : Dp.t) =
  let e = Elab.of_datapath dp in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let input_of op port =
    match Elab.driver op port with
    | Elab.Op_out (src, p) -> port_wire src.Elab.name p.Opspec.port_name
    | Elab.Ctl c -> "ctl_" ^ sanitize c.Dp.ctl_name
  in
  let ports =
    [ "input wire clk" ]
    @ List.map
        (fun (c : Dp.control) ->
          Printf.sprintf "input wire %sctl_%s" (range c.Dp.ctl_width)
            (sanitize c.Dp.ctl_name))
        dp.Dp.controls
    @ List.map
        (fun (st : Dp.status) ->
          Printf.sprintf "output wire %sst_%s"
            (range (Dp.status_width dp st))
            (sanitize st.Dp.st_name))
        dp.Dp.statuses
  in
  out "// Datapath %S -- generated by fpgatest; do not edit." dp.Dp.dp_name;
  out "module %s (" (sanitize dp.Dp.dp_name);
  out "  %s" (String.concat ",\n  " ports);
  out ");";
  out "";
  (* Wire declarations for every operator output port. *)
  List.iter
    (fun (op : Elab.op) ->
      let spec = op.Elab.spec in
      List.iter
        (fun (p : Opspec.port) ->
          if p.Opspec.direction = Opspec.Out then
            let kw =
              (* Mux outputs are procedurally assigned. *)
              if op.Elab.kind = Mux then "reg" else "wire"
            in
            out "  %s %s%s;" kw (range p.Opspec.port_width)
              (port_wire op.Elab.name p.Opspec.port_name))
        spec.Opspec.ports)
    (Elab.ops e);
  out "";
  List.iter
    (fun (op : Elab.op) ->
      let id = sanitize op.Elab.name in
      let y = port_wire op.Elab.name "y" in
      let a () = input_of op "a" in
      let b () = input_of op "b" in
      let width = op.Elab.width and p = op.Elab.spec.Opspec.params in
      let signed2 fmt = Printf.sprintf fmt (a ()) (b ()) in
      match op.Elab.kind with
      | Bin Add -> out "  assign %s = %s + %s;" y (a ()) (b ())
      | Bin Sub -> out "  assign %s = %s - %s;" y (a ()) (b ())
      | Bin Mul -> out "  assign %s = %s * %s;" y (a ()) (b ())
      | Bin Divu ->
          out "  assign %s = (%s == 0) ? %s : %s / %s;" y (b ())
            (all_ones width) (a ()) (b ())
      | Bin Remu ->
          out "  assign %s = (%s == 0) ? %s : %s %% %s;" y (b ()) (a ())
            (a ()) (b ())
      | Bin Divs ->
          out "  assign %s = (%s == 0) ? %s : $signed(%s) / $signed(%s);" y
            (b ()) (all_ones width) (a ()) (b ())
      | Bin Rems ->
          out "  assign %s = (%s == 0) ? %s : $signed(%s) %% $signed(%s);" y
            (b ()) (a ()) (a ()) (b ())
      | Bin And -> out "  assign %s = %s & %s;" y (a ()) (b ())
      | Bin Or -> out "  assign %s = %s | %s;" y (a ()) (b ())
      | Bin Xor -> out "  assign %s = %s ^ %s;" y (a ()) (b ())
      | Bin Shl -> out "  assign %s = %s << %s;" y (a ()) (b ())
      | Bin Shrl -> out "  assign %s = %s >> %s;" y (a ()) (b ())
      | Bin Shra -> out "  assign %s = $signed(%s) >>> %s;" y (a ()) (b ())
      | Cmp Eq -> out "  assign %s = (%s == %s);" y (a ()) (b ())
      | Cmp Ne -> out "  assign %s = (%s != %s);" y (a ()) (b ())
      | Cmp Ltu -> out "  assign %s = (%s < %s);" y (a ()) (b ())
      | Cmp Leu -> out "  assign %s = (%s <= %s);" y (a ()) (b ())
      | Cmp Gtu -> out "  assign %s = (%s > %s);" y (a ()) (b ())
      | Cmp Geu -> out "  assign %s = (%s >= %s);" y (a ()) (b ())
      | Cmp Lts -> out "  assign %s = %s;" y (signed2 "($signed(%s) < $signed(%s))")
      | Cmp Les -> out "  assign %s = %s;" y (signed2 "($signed(%s) <= $signed(%s))")
      | Cmp Gts -> out "  assign %s = %s;" y (signed2 "($signed(%s) > $signed(%s))")
      | Cmp Ges -> out "  assign %s = %s;" y (signed2 "($signed(%s) >= $signed(%s))")
      | Bin Minu ->
          out "  assign %s = (%s <= %s) ? %s : %s;" y (a ()) (b ()) (a ()) (b ())
      | Bin Maxu ->
          out "  assign %s = (%s >= %s) ? %s : %s;" y (a ()) (b ()) (a ()) (b ())
      | Bin Mins ->
          out "  assign %s = ($signed(%s) <= $signed(%s)) ? %s : %s;" y (a ())
            (b ()) (a ()) (b ())
      | Bin Maxs ->
          out "  assign %s = ($signed(%s) >= $signed(%s)) ? %s : %s;" y (a ())
            (b ()) (a ()) (b ())
      | Un Abs ->
          out "  assign %s = %s[%d] ? -%s : %s;" y (a ()) (width - 1) (a ()) (a ())
      | Un Not -> out "  assign %s = ~%s;" y (a ())
      | Un Neg -> out "  assign %s = -%s;" y (a ())
      | Un Pass -> out "  assign %s = %s;" y (a ())
      | Const ->
          let masked = p.value land ((1 lsl width) - 1) in
          out "  assign %s = %d'd%d;" y width masked
      | Zext -> out "  assign %s = %s;" y (a ())
      | Sext ->
          if width > p.from then
            out "  assign %s = {{%d{%s[%d]}}, %s};" y (width - p.from) (a ())
              (p.from - 1) (a ())
          else out "  assign %s = %s;" y (a ())
      | Mux ->
          let n = p.inputs in
          out "  always @* begin";
          out "    case (%s)" (input_of op "sel");
          for i = 0 to n - 1 do
            if i = n - 1 then
              out "      default: %s = %s;" y
                (input_of op (Printf.sprintf "in%d" i))
            else
              out "      %d: %s = %s;" i y (input_of op (Printf.sprintf "in%d" i))
          done;
          out "    endcase";
          out "  end"
      | Reg ->
          let q = port_wire op.Elab.name "q" in
          out "  reg %s%s_state = %d'd%d;" (range width) id width
            (Option.value p.init ~default:0 land ((1 lsl width) - 1));
          out "  always @(posedge clk) if (%s) %s_state <= %s;"
            (input_of op "en") id (input_of op "d");
          out "  assign %s = %s_state;" q id
      | Counter ->
          let q = port_wire op.Elab.name "q" in
          out "  reg %s%s_state = 0;" (range width) id;
          out "  always @(posedge clk)";
          out "    if (%s) %s_state <= %s;" (input_of op "load") id
            (input_of op "d");
          out "    else if (%s) %s_state <= %s_state + %d;" (input_of op "en")
            id id p.step;
          out "  assign %s = %s_state;" q id
      | Sram ->
          let dout = port_wire op.Elab.name "dout" in
          out "  reg %smem_%s [0:%d];" (range width) id (p.size - 1);
          out "  assign %s = mem_%s[%s];" dout id (input_of op "addr");
          out "  always @(posedge clk) if (%s) mem_%s[%s] <= %s;"
            (input_of op "we") id (input_of op "addr") (input_of op "din")
      | Rom ->
          let dout = port_wire op.Elab.name "dout" in
          out "  reg %srom_%s [0:%d];" (range width) id (p.size - 1);
          out "  assign %s = rom_%s[%s];" dout id (input_of op "addr")
      | Probe ->
          out "`ifndef SYNTHESIS";
          out "  always @(%s) $display(\"probe %s: %%0d (t=%%0t)\", %s);"
            (a ()) id (a ());
          out "`endif"
      | Check ->
          out "`ifndef SYNTHESIS";
          out "  always @* if (%s && %s != %d)" (input_of op "en") (a ()) p.value;
          out "    $display(\"check %s FAILED: got %%0d, want %d\", %s);" id
            p.value (a ());
          out "`endif"
      | Stop ->
          out "`ifndef SYNTHESIS";
          out "  always @* if (%s) $finish;" (input_of op "en");
          out "`endif")
    (Elab.ops e);
  out "";
  List.iter
    (fun (st : Dp.status) ->
      out "  assign st_%s = %s;" (sanitize st.Dp.st_name)
        (port_wire st.Dp.st_source.Dp.inst st.Dp.st_source.Dp.port))
    dp.Dp.statuses;
  out "endmodule";
  Buffer.contents buf

(* --- FSM ------------------------------------------------------------- *)

let rec guard_expr = function
  | Guard.True -> "1'b1"
  | Guard.Test { signal; op; value } ->
      let op_str =
        match op with
        | Guard.Ceq -> "=="
        | Guard.Cne -> "!="
        | Guard.Clt -> "<"
        | Guard.Cle -> "<="
        | Guard.Cgt -> ">"
        | Guard.Cge -> ">="
      in
      Printf.sprintf "(st_%s %s %d)" (sanitize signal) op_str value
  | Guard.Not g -> Printf.sprintf "!%s" (guard_expr g)
  | Guard.And (a, b) -> Printf.sprintf "(%s && %s)" (guard_expr a) (guard_expr b)
  | Guard.Or (a, b) -> Printf.sprintf "(%s || %s)" (guard_expr a) (guard_expr b)

let state_bits n =
  let rec bits v acc = if v = 0 then max acc 1 else bits (v lsr 1) (acc + 1) in
  bits (max 0 (n - 1)) 0

let fsm (m : Fsm.t) =
  Fsm.validate m;
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let nbits = state_bits (List.length m.Fsm.states) in
  let state_const name =
    let idx =
      let rec find i = function
        | [] -> 0
        | (s : Fsm.state) :: _ when s.Fsm.sname = name -> i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 m.Fsm.states
    in
    Printf.sprintf "%d'd%d" nbits idx
  in
  let ports =
    [ "input wire clk" ]
    @ List.map
        (fun (i : Fsm.io) ->
          Printf.sprintf "input wire %sst_%s" (range i.Fsm.io_width)
            (sanitize i.Fsm.io_name))
        m.Fsm.inputs
    @ List.map
        (fun (o : Fsm.io) ->
          Printf.sprintf "output reg %sctl_%s" (range o.Fsm.io_width)
            (sanitize o.Fsm.io_name))
        m.Fsm.outputs
    @ [ "output wire fsm_done" ]
  in
  out "// Controller %S -- generated by fpgatest; do not edit." m.Fsm.fsm_name;
  out "module %s (" (sanitize m.Fsm.fsm_name);
  out "  %s" (String.concat ",\n  " ports);
  out ");";
  out "";
  List.iteri
    (fun i (s : Fsm.state) ->
      out "  localparam S_%s = %d'd%d;" (sanitize s.Fsm.sname) nbits i)
    m.Fsm.states;
  out "";
  out "  reg %sstate = %s;" (range nbits) (state_const m.Fsm.initial);
  out "";
  out "  // Next-state logic.";
  out "  always @(posedge clk) begin";
  out "    case (state)";
  List.iter
    (fun (s : Fsm.state) ->
      match s.Fsm.transitions with
      | [] -> ()
      | transitions ->
          let rec chain = function
            | [] -> "state"
            | (tr : Fsm.transition) :: rest -> (
                match tr.Fsm.guard with
                | Guard.True -> "S_" ^ sanitize tr.Fsm.target
                | g ->
                    Printf.sprintf "%s ? S_%s : %s" (guard_expr g)
                      (sanitize tr.Fsm.target) (chain rest))
          in
          out "      S_%s: state <= %s;" (sanitize s.Fsm.sname)
            (chain transitions))
    m.Fsm.states;
  out "      default: state <= state;";
  out "    endcase";
  out "  end";
  out "";
  out "  // Moore output decode.";
  out "  always @* begin";
  List.iter
    (fun (o : Fsm.io) ->
      out "    ctl_%s = %d;" (sanitize o.Fsm.io_name) o.Fsm.default)
    m.Fsm.outputs;
  out "    case (state)";
  List.iter
    (fun (s : Fsm.state) ->
      match s.Fsm.settings with
      | [] -> ()
      | settings ->
          out "      S_%s: begin" (sanitize s.Fsm.sname);
          List.iter
            (fun (name, value) -> out "        ctl_%s = %d;" (sanitize name) value)
            settings;
          out "      end")
    m.Fsm.states;
  out "      default: ;";
  out "    endcase";
  out "  end";
  out "";
  let done_names = Fsm.done_states m in
  (match done_names with
  | [] -> out "  assign fsm_done = 1'b0;"
  | _ ->
      out "  assign fsm_done = %s;"
        (String.concat " || "
           (List.map (fun n -> Printf.sprintf "(state == S_%s)" (sanitize n))
              done_names)));
  out "endmodule";
  Buffer.contents buf

let system (dp : Dp.t) (m : Fsm.t) =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (datapath dp);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (fsm m);
  Buffer.add_string buf "\n";
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = sanitize dp.Dp.dp_name in
  out "// System top: datapath + controller.";
  out "module %s_top (input wire clk, output wire done);" name;
  List.iter
    (fun (c : Dp.control) ->
      out "  wire %s%s;" (range c.Dp.ctl_width) ("c_" ^ sanitize c.Dp.ctl_name))
    dp.Dp.controls;
  List.iter
    (fun (st : Dp.status) ->
      out "  wire %s%s;"
        (range (Dp.status_width dp st))
        ("s_" ^ sanitize st.Dp.st_name))
    dp.Dp.statuses;
  let dp_conns =
    [ ".clk(clk)" ]
    @ List.map
        (fun (c : Dp.control) ->
          Printf.sprintf ".ctl_%s(c_%s)" (sanitize c.Dp.ctl_name)
            (sanitize c.Dp.ctl_name))
        dp.Dp.controls
    @ List.map
        (fun (st : Dp.status) ->
          Printf.sprintf ".st_%s(s_%s)" (sanitize st.Dp.st_name)
            (sanitize st.Dp.st_name))
        dp.Dp.statuses
  in
  out "  %s u_dp (%s);" name (String.concat ", " dp_conns);
  let fsm_conns =
    [ ".clk(clk)" ]
    @ List.map
        (fun (i : Fsm.io) ->
          Printf.sprintf ".st_%s(s_%s)" (sanitize i.Fsm.io_name)
            (sanitize i.Fsm.io_name))
        m.Fsm.inputs
    @ List.map
        (fun (o : Fsm.io) ->
          Printf.sprintf ".ctl_%s(c_%s)" (sanitize o.Fsm.io_name)
            (sanitize o.Fsm.io_name))
        m.Fsm.outputs
    @ [ ".fsm_done(done)" ]
  in
  out "  %s u_fsm (%s);" (sanitize m.Fsm.fsm_name) (String.concat ", " fsm_conns);
  out "endmodule";
  Buffer.contents buf
