module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec

let sanitize = Verilog.sanitize
let sig_name inst port = Printf.sprintf "w_%s_%s" (sanitize inst) (sanitize port)
let utype w = Printf.sprintf "sc_uint<%d>" w
let stype w = Printf.sprintf "sc_int<%d>" w

let datapath (dp : Dp.t) =
  let e = Elab.of_datapath dp in
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let input_of op port =
    match Elab.driver op port with
    | Elab.Op_out (src, p) -> sig_name src.Elab.name p.Opspec.port_name ^ ".read()"
    | Elab.Ctl c -> "ctl_" ^ sanitize c.Dp.ctl_name ^ ".read()"
  in
  let name = sanitize dp.Dp.dp_name in
  out "// Datapath %S -- generated by fpgatest; do not edit." dp.Dp.dp_name;
  out "#include <systemc.h>";
  out "";
  out "SC_MODULE(%s) {" name;
  out "  sc_in<bool> clk;";
  List.iter
    (fun (c : Dp.control) ->
      out "  sc_in<%s> ctl_%s;" (utype c.Dp.ctl_width) (sanitize c.Dp.ctl_name))
    dp.Dp.controls;
  List.iter
    (fun (st : Dp.status) ->
      out "  sc_out<%s> st_%s;"
        (utype (Dp.status_width dp st))
        (sanitize st.Dp.st_name))
    dp.Dp.statuses;
  out "";
  (* Internal signals for operator outputs; member storage for memories
     and registers. *)
  List.iter
    (fun (op : Elab.op) ->
      List.iter
        (fun (p : Opspec.port) ->
          if p.Opspec.direction = Opspec.Out then
            out "  sc_signal<%s> %s;" (utype p.Opspec.port_width)
              (sig_name op.Elab.name p.Opspec.port_name))
        op.Elab.spec.Opspec.ports;
      match op.Elab.kind with
      | Reg | Counter ->
          out "  %s %s_state;" (utype op.Elab.width) (sanitize op.Elab.name)
      | Sram | Rom ->
          out "  %s mem_%s[%d];" (utype op.Elab.width) (sanitize op.Elab.name)
            op.Elab.spec.Opspec.params.size
      | Bin _ | Cmp _ | Un _ | Const | Zext | Sext | Mux | Probe | Check | Stop ->
          ())
    (Elab.ops e);
  out "";
  (* Combinational method. *)
  out "  void comb() {";
  List.iter
    (fun (op : Elab.op) ->
      let y = sig_name op.Elab.name "y" in
      let a () = input_of op "a" in
      let b () = input_of op "b" in
      let width = op.Elab.width and p = op.Elab.spec.Opspec.params in
      let signed v = Printf.sprintf "(%s)%s" (stype width) v in
      let wr target expr = out "    %s.write(%s);" target expr in
      let bool_out expr = wr y (Printf.sprintf "(%s) ? 1 : 0" expr) in
      match op.Elab.kind with
      | Bin Add -> wr y (Printf.sprintf "%s + %s" (a ()) (b ()))
      | Bin Sub -> wr y (Printf.sprintf "%s - %s" (a ()) (b ()))
      | Bin Mul -> wr y (Printf.sprintf "%s * %s" (a ()) (b ()))
      | Bin Divu ->
          wr y (Printf.sprintf "(%s == 0) ? (%s)(-1) : %s / %s" (b ())
                  (utype width) (a ()) (b ()))
      | Bin Remu ->
          wr y (Printf.sprintf "(%s == 0) ? %s : %s %% %s" (b ()) (a ()) (a ()) (b ()))
      | Bin Divs ->
          wr y (Printf.sprintf "(%s == 0) ? (%s)(-1) : (%s)(%s / %s)" (b ())
                  (utype width) (utype width) (signed (a ())) (signed (b ())))
      | Bin Rems ->
          wr y (Printf.sprintf "(%s == 0) ? %s : (%s)(%s %% %s)" (b ()) (a ())
                  (utype width) (signed (a ())) (signed (b ())))
      | Bin And -> wr y (Printf.sprintf "%s & %s" (a ()) (b ()))
      | Bin Or -> wr y (Printf.sprintf "%s | %s" (a ()) (b ()))
      | Bin Xor -> wr y (Printf.sprintf "%s ^ %s" (a ()) (b ()))
      | Bin Shl -> wr y (Printf.sprintf "%s << %s" (a ()) (b ()))
      | Bin Shrl -> wr y (Printf.sprintf "%s >> %s" (a ()) (b ()))
      | Bin Shra -> wr y (Printf.sprintf "(%s)(%s >> %s)" (utype width) (signed (a ())) (b ()))
      | Cmp Eq -> bool_out (Printf.sprintf "%s == %s" (a ()) (b ()))
      | Cmp Ne -> bool_out (Printf.sprintf "%s != %s" (a ()) (b ()))
      | Cmp Ltu -> bool_out (Printf.sprintf "%s < %s" (a ()) (b ()))
      | Cmp Leu -> bool_out (Printf.sprintf "%s <= %s" (a ()) (b ()))
      | Cmp Gtu -> bool_out (Printf.sprintf "%s > %s" (a ()) (b ()))
      | Cmp Geu -> bool_out (Printf.sprintf "%s >= %s" (a ()) (b ()))
      | Cmp Lts -> bool_out (Printf.sprintf "%s < %s" (signed (a ())) (signed (b ())))
      | Cmp Les -> bool_out (Printf.sprintf "%s <= %s" (signed (a ())) (signed (b ())))
      | Cmp Gts -> bool_out (Printf.sprintf "%s > %s" (signed (a ())) (signed (b ())))
      | Cmp Ges -> bool_out (Printf.sprintf "%s >= %s" (signed (a ())) (signed (b ())))
      | Bin Minu -> wr y (Printf.sprintf "(%s <= %s) ? %s : %s" (a ()) (b ()) (a ()) (b ()))
      | Bin Maxu -> wr y (Printf.sprintf "(%s >= %s) ? %s : %s" (a ()) (b ()) (a ()) (b ()))
      | Bin Mins ->
          wr y (Printf.sprintf "(%s <= %s) ? %s : %s" (signed (a ())) (signed (b ())) (a ()) (b ()))
      | Bin Maxs ->
          wr y (Printf.sprintf "(%s >= %s) ? %s : %s" (signed (a ())) (signed (b ())) (a ()) (b ()))
      | Un Abs ->
          wr y (Printf.sprintf "(%s < 0) ? (%s)(-%s) : %s" (signed (a ()))
                  (utype width) (signed (a ())) (a ()))
      | Un Not -> wr y (Printf.sprintf "~%s" (a ()))
      | Un Neg -> wr y (Printf.sprintf "(%s)(-%s)" (utype width) (a ()))
      | Un Pass -> wr y (a ())
      | Const ->
          wr y (string_of_int (p.value land ((1 lsl width) - 1)))
      | Zext -> wr y (Printf.sprintf "(%s)%s" (utype width) (a ()))
      | Sext ->
          wr y (Printf.sprintf "(%s)(%s)(%s)%s" (utype width) (stype width)
                  (stype p.from) (a ()))
      | Mux ->
          let n = p.inputs in
          out "    switch ((int)%s) {" (input_of op "sel");
          for i = 0 to n - 1 do
            if i = n - 1 then
              out "      default: %s.write(%s); break;" y
                (input_of op (Printf.sprintf "in%d" i))
            else
              out "      case %d: %s.write(%s); break;" i y
                (input_of op (Printf.sprintf "in%d" i))
          done;
          out "    }"
      | Sram | Rom ->
          out "    %s.write(mem_%s[(int)%s]);"
            (sig_name op.Elab.name "dout") (sanitize op.Elab.name) (input_of op "addr")
      | Reg | Counter ->
          out "    %s.write(%s_state);" (sig_name op.Elab.name "q") (sanitize op.Elab.name)
      | Probe | Check | Stop -> ())
    (Elab.ops e);
  List.iter
    (fun (st : Dp.status) ->
      out "    st_%s.write(%s.read());" (sanitize st.Dp.st_name)
        (sig_name st.Dp.st_source.Dp.inst st.Dp.st_source.Dp.port))
    dp.Dp.statuses;
  out "  }";
  out "";
  (* Sequential method (rising edge). *)
  out "  void seq() {";
  List.iter
    (fun (op : Elab.op) ->
      let id = sanitize op.Elab.name and p = op.Elab.spec.Opspec.params in
      match op.Elab.kind with
      | Reg ->
          out "    if (%s == 1) %s_state = %s;" (input_of op "en") id
            (input_of op "d")
      | Counter ->
          out "    if (%s == 1) %s_state = %s;" (input_of op "load") id
            (input_of op "d");
          out "    else if (%s == 1) %s_state = %s_state + %d;"
            (input_of op "en") id id p.step
      | Sram ->
          out "    if (%s == 1) mem_%s[(int)%s] = %s;" (input_of op "we") id
            (input_of op "addr") (input_of op "din")
      | Check ->
          out "    if (%s == 1 && %s != %d)" (input_of op "en") (input_of op "a")
            p.value;
          out "      std::cout << \"check %s FAILED at \" << sc_time_stamp() << std::endl;" id
      | Stop ->
          out "    if (%s == 1) sc_stop();" (input_of op "en")
      | Bin _ | Cmp _ | Un _ | Const | Zext | Sext | Mux | Rom | Probe -> ())
    (Elab.ops e);
  out "  }";
  out "";
  out "  SC_CTOR(%s) {" name;
  out "    SC_METHOD(comb);";
  let sens =
    List.map (fun (c : Dp.control) -> "ctl_" ^ sanitize c.Dp.ctl_name) dp.Dp.controls
    @ List.concat_map
        (fun (op : Elab.op) ->
          List.filter_map
            (fun (p : Opspec.port) ->
              if p.Opspec.direction = Opspec.Out then
                Some (sig_name op.Elab.name p.Opspec.port_name)
              else None)
            op.Elab.spec.Opspec.ports)
        (Elab.ops e)
  in
  (match sens with
  | [] -> ()
  | sens -> out "    sensitive << %s;" (String.concat " << " sens));
  out "    SC_METHOD(seq);";
  out "    sensitive << clk.pos();";
  out "    dont_initialize();";
  out "  }";
  out "};";
  Buffer.contents buf

let fsm (m : Fsm.t) =
  Fsm.validate m;
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = sanitize m.Fsm.fsm_name in
  let rec guard_expr = function
    | Guard.True -> "true"
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
        Printf.sprintf "(st_%s.read() %s %d)" (sanitize signal) op_str value
    | Guard.Not g -> Printf.sprintf "!%s" (guard_expr g)
    | Guard.And (a, b) -> Printf.sprintf "(%s && %s)" (guard_expr a) (guard_expr b)
    | Guard.Or (a, b) -> Printf.sprintf "(%s || %s)" (guard_expr a) (guard_expr b)
  in
  out "// Controller %S -- generated by fpgatest; do not edit." m.Fsm.fsm_name;
  out "#include <systemc.h>";
  out "";
  out "SC_MODULE(%s) {" name;
  out "  sc_in<bool> clk;";
  List.iter
    (fun (i : Fsm.io) ->
      out "  sc_in<sc_uint<%d>> st_%s;" i.Fsm.io_width (sanitize i.Fsm.io_name))
    m.Fsm.inputs;
  List.iter
    (fun (o : Fsm.io) ->
      out "  sc_out<sc_uint<%d>> ctl_%s;" o.Fsm.io_width (sanitize o.Fsm.io_name))
    m.Fsm.outputs;
  out "  sc_out<bool> fsm_done;";
  out "";
  out "  enum state_t { %s };"
    (String.concat ", "
       (List.map (fun (s : Fsm.state) -> "S_" ^ sanitize s.Fsm.sname) m.Fsm.states));
  out "  state_t state;";
  out "";
  out "  void step() {";
  out "    switch (state) {";
  List.iter
    (fun (s : Fsm.state) ->
      out "      case S_%s:" (sanitize s.Fsm.sname);
      let rec chain = function
        | [] -> out "        break;"
        | (tr : Fsm.transition) :: rest -> (
            match tr.Fsm.guard with
            | Guard.True ->
                out "        state = S_%s;" (sanitize tr.Fsm.target);
                out "        break;"
            | g ->
                out "        if (%s) { state = S_%s; break; }" (guard_expr g)
                  (sanitize tr.Fsm.target);
                chain rest)
      in
      chain s.Fsm.transitions)
    m.Fsm.states;
  out "    }";
  out "  }";
  out "";
  out "  void decode() {";
  List.iter
    (fun (o : Fsm.io) ->
      out "    ctl_%s.write(%d);" (sanitize o.Fsm.io_name) o.Fsm.default)
    m.Fsm.outputs;
  out "    switch (state) {";
  List.iter
    (fun (s : Fsm.state) ->
      out "      case S_%s:" (sanitize s.Fsm.sname);
      List.iter
        (fun (nm, v) -> out "        ctl_%s.write(%d);" (sanitize nm) v)
        s.Fsm.settings;
      out "        break;")
    m.Fsm.states;
  out "    }";
  (match Fsm.done_states m with
  | [] -> out "    fsm_done.write(false);"
  | names ->
      out "    fsm_done.write(%s);"
        (String.concat " || "
           (List.map (fun n -> Printf.sprintf "state == S_%s" (sanitize n)) names)));
  out "  }";
  out "";
  out "  SC_CTOR(%s) : state(S_%s) {" name (sanitize m.Fsm.initial);
  out "    SC_METHOD(step);";
  out "    sensitive << clk.pos();";
  out "    dont_initialize();";
  out "    SC_METHOD(decode);";
  out "    sensitive << clk;";
  out "  }";
  out "};";
  Buffer.contents buf

let system (dp : Dp.t) (m : Fsm.t) =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf (datapath dp);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (fsm m);
  Buffer.add_string buf "\n";
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = sanitize dp.Dp.dp_name in
  out "// System top: datapath + controller.";
  out "SC_MODULE(%s_top) {" name;
  out "  sc_in<bool> clk;";
  out "  sc_out<bool> done;";
  List.iter
    (fun (c : Dp.control) ->
      out "  sc_signal<sc_uint<%d>> c_%s;" c.Dp.ctl_width (sanitize c.Dp.ctl_name))
    dp.Dp.controls;
  List.iter
    (fun (st : Dp.status) ->
      out "  sc_signal<sc_uint<%d>> s_%s;"
        (Dp.status_width dp st) (sanitize st.Dp.st_name))
    dp.Dp.statuses;
  out "  %s u_dp;" name;
  out "  %s u_fsm;" (sanitize m.Fsm.fsm_name);
  out "  SC_CTOR(%s_top) : u_dp(\"u_dp\"), u_fsm(\"u_fsm\") {" name;
  out "    u_dp.clk(clk);";
  out "    u_fsm.clk(clk);";
  List.iter
    (fun (c : Dp.control) ->
      out "    u_dp.ctl_%s(c_%s);" (sanitize c.Dp.ctl_name) (sanitize c.Dp.ctl_name))
    dp.Dp.controls;
  List.iter
    (fun (st : Dp.status) ->
      out "    u_dp.st_%s(s_%s);" (sanitize st.Dp.st_name) (sanitize st.Dp.st_name))
    dp.Dp.statuses;
  List.iter
    (fun (i : Fsm.io) ->
      out "    u_fsm.st_%s(s_%s);" (sanitize i.Fsm.io_name) (sanitize i.Fsm.io_name))
    m.Fsm.inputs;
  List.iter
    (fun (o : Fsm.io) ->
      out "    u_fsm.ctl_%s(c_%s);" (sanitize o.Fsm.io_name) (sanitize o.Fsm.io_name))
    m.Fsm.outputs;
  out "    u_fsm.fsm_done(done);";
  out "  }";
  out "};";
  Buffer.contents buf
