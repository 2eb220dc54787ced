module Dp = Netlist.Datapath
module Elab = Netlist.Elab
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Opspec = Operators.Opspec

let sanitize name =
  let mapped =
    String.map
      (fun c ->
        if
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9') || c = '_'
        then c
        else '_')
      name
  in
  (* VHDL identifiers cannot start with '_' or a digit. *)
  if mapped = "" || mapped.[0] = '_' || (mapped.[0] >= '0' && mapped.[0] <= '9')
  then "x" ^ mapped
  else mapped

let utype w = Printf.sprintf "unsigned(%d downto 0)" (w - 1)
let port_sig inst port = Printf.sprintf "w_%s_%s" (sanitize inst) (sanitize port)

let header buf =
  Buffer.add_string buf "library ieee;\n";
  Buffer.add_string buf "use ieee.std_logic_1164.all;\n";
  Buffer.add_string buf "use ieee.numeric_std.all;\n\n"

let datapath (dp : Dp.t) =
  let e = Elab.of_datapath dp in
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  header buf;
  let input_of op port =
    match Elab.driver op port with
    | Elab.Op_out (src, p) -> port_sig src.Elab.name p.Opspec.port_name
    | Elab.Ctl c -> "ctl_" ^ sanitize c.Dp.ctl_name
  in
  let name = sanitize dp.Dp.dp_name in
  out "-- Datapath %S -- generated by fpgatest; do not edit." dp.Dp.dp_name;
  out "entity %s is" name;
  out "  port (";
  let port_lines =
    [ "clk : in std_logic" ]
    @ List.map
        (fun (c : Dp.control) ->
          Printf.sprintf "ctl_%s : in %s" (sanitize c.Dp.ctl_name)
            (utype c.Dp.ctl_width))
        dp.Dp.controls
    @ List.map
        (fun (st : Dp.status) ->
          Printf.sprintf "st_%s : out %s" (sanitize st.Dp.st_name)
            (utype (Dp.status_width dp st)))
        dp.Dp.statuses
  in
  out "    %s" (String.concat ";\n    " port_lines);
  out "  );";
  out "end entity %s;" name;
  out "";
  out "architecture rtl of %s is" name;
  (* Signal declarations for operator outputs; array types for memories. *)
  List.iter
    (fun (op : Elab.op) ->
      let spec = op.Elab.spec in
      List.iter
        (fun (p : Opspec.port) ->
          if p.Opspec.direction = Opspec.Out then
            out "  signal %s : %s := (others => '0');"
              (port_sig op.Elab.name p.Opspec.port_name)
              (utype p.Opspec.port_width))
        spec.Opspec.ports;
      match op.Elab.kind with
      | Sram | Rom ->
          out "  type t_mem_%s is array (0 to %d) of %s;" (sanitize op.Elab.name)
            (op.Elab.spec.Opspec.params.size - 1) (utype op.Elab.width);
          out "  signal mem_%s : t_mem_%s := (others => (others => '0'));"
            (sanitize op.Elab.name) (sanitize op.Elab.name)
      | Bin _ | Cmp _ | Un _ | Const | Zext | Sext | Mux | Reg | Counter | Probe
      | Check | Stop ->
          ())
    (Elab.ops e);
  out "begin";
  List.iter
    (fun (op : Elab.op) ->
      let id = sanitize op.Elab.name in
      let y = port_sig op.Elab.name "y" in
      let a () = input_of op "a" in
      let b () = input_of op "b" in
      let width = op.Elab.width and p = op.Elab.spec.Opspec.params in
      let bool_out expr = out "  %s <= \"1\" when %s else \"0\";" y expr in
      match op.Elab.kind with
      | Bin Add -> out "  %s <= %s + %s;" y (a ()) (b ())
      | Bin Sub -> out "  %s <= %s - %s;" y (a ()) (b ())
      | Bin Mul -> out "  %s <= resize(%s * %s, %d);" y (a ()) (b ()) width
      | Bin Divu ->
          out "  %s <= (others => '1') when %s = 0 else %s / %s;" y (b ())
            (a ()) (b ())
      | Bin Remu ->
          out "  %s <= %s when %s = 0 else %s rem %s;" y (a ()) (b ()) (a ())
            (b ())
      | Bin Divs ->
          out
            "  %s <= (others => '1') when %s = 0 else unsigned(signed(%s) / signed(%s));"
            y (b ()) (a ()) (b ())
      | Bin Rems ->
          out "  %s <= %s when %s = 0 else unsigned(signed(%s) rem signed(%s));"
            y (a ()) (b ()) (a ()) (b ())
      | Bin And -> out "  %s <= %s and %s;" y (a ()) (b ())
      | Bin Or -> out "  %s <= %s or %s;" y (a ()) (b ())
      | Bin Xor -> out "  %s <= %s xor %s;" y (a ()) (b ())
      | Bin Shl ->
          out "  %s <= shift_left(%s, to_integer(%s));" y (a ()) (b ())
      | Bin Shrl ->
          out "  %s <= shift_right(%s, to_integer(%s));" y (a ()) (b ())
      | Bin Shra ->
          out "  %s <= unsigned(shift_right(signed(%s), to_integer(%s)));" y
            (a ()) (b ())
      | Cmp Eq -> bool_out (Printf.sprintf "%s = %s" (a ()) (b ()))
      | Cmp Ne -> bool_out (Printf.sprintf "%s /= %s" (a ()) (b ()))
      | Cmp Ltu -> bool_out (Printf.sprintf "%s < %s" (a ()) (b ()))
      | Cmp Leu -> bool_out (Printf.sprintf "%s <= %s" (a ()) (b ()))
      | Cmp Gtu -> bool_out (Printf.sprintf "%s > %s" (a ()) (b ()))
      | Cmp Geu -> bool_out (Printf.sprintf "%s >= %s" (a ()) (b ()))
      | Cmp Lts -> bool_out (Printf.sprintf "signed(%s) < signed(%s)" (a ()) (b ()))
      | Cmp Les -> bool_out (Printf.sprintf "signed(%s) <= signed(%s)" (a ()) (b ()))
      | Cmp Gts -> bool_out (Printf.sprintf "signed(%s) > signed(%s)" (a ()) (b ()))
      | Cmp Ges -> bool_out (Printf.sprintf "signed(%s) >= signed(%s)" (a ()) (b ()))
      | Bin Minu ->
          out "  %s <= %s when %s <= %s else %s;" y (a ()) (a ()) (b ()) (b ())
      | Bin Maxu ->
          out "  %s <= %s when %s >= %s else %s;" y (a ()) (a ()) (b ()) (b ())
      | Bin Mins ->
          out "  %s <= %s when signed(%s) <= signed(%s) else %s;" y (a ())
            (a ()) (b ()) (b ())
      | Bin Maxs ->
          out "  %s <= %s when signed(%s) >= signed(%s) else %s;" y (a ())
            (a ()) (b ()) (b ())
      | Un Abs ->
          out "  %s <= unsigned(abs(signed(%s)));" y (a ())
      | Un Not -> out "  %s <= not %s;" y (a ())
      | Un Neg -> out "  %s <= (others => '0') - %s;" y (a ())
      | Un Pass -> out "  %s <= %s;" y (a ())
      | Const ->
          out "  %s <= to_unsigned(%d, %d);" y (p.value land ((1 lsl width) - 1))
            width
      | Zext -> out "  %s <= resize(%s, %d);" y (a ()) width
      | Sext ->
          out "  %s <= unsigned(resize(signed(%s), %d));" y (a ()) width
      | Mux ->
          let n = p.inputs in
          out "  with to_integer(%s) select" (input_of op "sel");
          for i = 0 to n - 1 do
            if i = n - 1 then
              out "    %s <= %s when others;" y
                (input_of op (Printf.sprintf "in%d" i))
            else
              out "    %s <= %s when %d," y
                (input_of op (Printf.sprintf "in%d" i))
                i
          done
      | Reg ->
          out "  p_%s : process (clk) begin" id;
          out "    if rising_edge(clk) then";
          out "      if %s = 1 then %s <= %s; end if;" (input_of op "en")
            (port_sig op.Elab.name "q") (input_of op "d");
          out "    end if;";
          out "  end process;"
      | Counter ->
          let q = port_sig op.Elab.name "q" in
          out "  p_%s : process (clk) begin" id;
          out "    if rising_edge(clk) then";
          out "      if %s = 1 then %s <= %s;" (input_of op "load") q
            (input_of op "d");
          out "      elsif %s = 1 then %s <= %s + %d;" (input_of op "en") q q
            p.step;
          out "      end if;";
          out "    end if;";
          out "  end process;"
      | Sram ->
          out "  %s <= mem_%s(to_integer(%s));" (port_sig op.Elab.name "dout") id
            (input_of op "addr");
          out "  p_%s : process (clk) begin" id;
          out "    if rising_edge(clk) then";
          out "      if %s = 1 then mem_%s(to_integer(%s)) <= %s; end if;"
            (input_of op "we") id (input_of op "addr") (input_of op "din");
          out "    end if;";
          out "  end process;"
      | Rom ->
          out "  %s <= mem_%s(to_integer(%s));" (port_sig op.Elab.name "dout") id
            (input_of op "addr")
      | Probe ->
          out "  -- probe %s observes %s (simulation aid)" id (a ())
      | Check ->
          out "  p_%s : process (%s, %s) begin" id (a ()) (input_of op "en");
          out "    assert not (%s = 1 and %s /= %d)" (input_of op "en") (a ())
            p.value;
          out "      report \"check %s failed\" severity error;" id;
          out "  end process;"
      | Stop ->
          out "  p_%s : process (%s) begin" id (input_of op "en");
          out "    assert %s /= 1 report \"stop %s\" severity failure;"
            (input_of op "en") id;
          out "  end process;")
    (Elab.ops e);
  List.iter
    (fun (st : Dp.status) ->
      out "  st_%s <= %s;" (sanitize st.Dp.st_name)
        (port_sig st.Dp.st_source.Dp.inst st.Dp.st_source.Dp.port))
    dp.Dp.statuses;
  out "end architecture rtl;";
  Buffer.contents buf

(* --- FSM ------------------------------------------------------------- *)

let rec guard_expr = function
  | Guard.True -> "true"
  | Guard.Test { signal; op; value } ->
      let op_str =
        match op with
        | Guard.Ceq -> "="
        | Guard.Cne -> "/="
        | Guard.Clt -> "<"
        | Guard.Cle -> "<="
        | Guard.Cgt -> ">"
        | Guard.Cge -> ">="
      in
      Printf.sprintf "(to_integer(st_%s) %s %d)" (sanitize signal) op_str value
  | Guard.Not g -> Printf.sprintf "(not %s)" (guard_expr g)
  | Guard.And (a, b) -> Printf.sprintf "(%s and %s)" (guard_expr a) (guard_expr b)
  | Guard.Or (a, b) -> Printf.sprintf "(%s or %s)" (guard_expr a) (guard_expr b)

let fsm (m : Fsm.t) =
  Fsm.validate m;
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  header buf;
  let name = sanitize m.Fsm.fsm_name in
  out "-- Controller %S -- generated by fpgatest; do not edit." m.Fsm.fsm_name;
  out "entity %s is" name;
  out "  port (";
  let port_lines =
    [ "clk : in std_logic" ]
    @ List.map
        (fun (i : Fsm.io) ->
          Printf.sprintf "st_%s : in %s" (sanitize i.Fsm.io_name)
            (utype i.Fsm.io_width))
        m.Fsm.inputs
    @ List.map
        (fun (o : Fsm.io) ->
          Printf.sprintf "ctl_%s : out %s" (sanitize o.Fsm.io_name)
            (utype o.Fsm.io_width))
        m.Fsm.outputs
    @ [ "fsm_done : out std_logic" ]
  in
  out "    %s" (String.concat ";\n    " port_lines);
  out "  );";
  out "end entity %s;" name;
  out "";
  out "architecture rtl of %s is" name;
  out "  type t_state is (%s);"
    (String.concat ", "
       (List.map (fun (s : Fsm.state) -> "S_" ^ sanitize s.Fsm.sname) m.Fsm.states));
  out "  signal state : t_state := S_%s;" (sanitize m.Fsm.initial);
  out "begin";
  out "  p_next : process (clk) begin";
  out "    if rising_edge(clk) then";
  out "      case state is";
  List.iter
    (fun (s : Fsm.state) ->
      out "        when S_%s =>" (sanitize s.Fsm.sname);
      let rec chain = function
        | [] -> out "          null;"
        | (tr : Fsm.transition) :: rest -> (
            match tr.Fsm.guard with
            | Guard.True -> out "          state <= S_%s;" (sanitize tr.Fsm.target)
            | g ->
                out "          if %s then state <= S_%s;" (guard_expr g)
                  (sanitize tr.Fsm.target);
                (match rest with
                | [] -> out "          end if;"
                | _ ->
                    out "          else";
                    chain_else rest;
                    out "          end if;"))
      and chain_else = function
        | [] -> out "            null;"
        | (tr : Fsm.transition) :: rest -> (
            match tr.Fsm.guard with
            | Guard.True ->
                out "            state <= S_%s;" (sanitize tr.Fsm.target)
            | g ->
                out "            if %s then state <= S_%s; end if;"
                  (guard_expr g) (sanitize tr.Fsm.target);
                ignore rest)
      in
      chain s.Fsm.transitions)
    m.Fsm.states;
  out "      end case;";
  out "    end if;";
  out "  end process;";
  out "";
  out "  p_out : process (state) begin";
  List.iter
    (fun (o : Fsm.io) ->
      out "    ctl_%s <= to_unsigned(%d, %d);" (sanitize o.Fsm.io_name)
        o.Fsm.default o.Fsm.io_width)
    m.Fsm.outputs;
  out "    case state is";
  List.iter
    (fun (s : Fsm.state) ->
      out "      when S_%s =>" (sanitize s.Fsm.sname);
      if s.Fsm.settings = [] then out "        null;"
      else
        List.iter
          (fun (nm, v) ->
            let o =
              List.find (fun (o : Fsm.io) -> o.Fsm.io_name = nm) m.Fsm.outputs
            in
            out "        ctl_%s <= to_unsigned(%d, %d);" (sanitize nm) v
              o.Fsm.io_width)
          s.Fsm.settings)
    m.Fsm.states;
  out "    end case;";
  out "  end process;";
  out "";
  (match Fsm.done_states m with
  | [] -> out "  fsm_done <= '0';"
  | names ->
      out "  fsm_done <= '1' when %s else '0';"
        (String.concat " or "
           (List.map
              (fun n -> Printf.sprintf "state = S_%s" (sanitize n))
              names)));
  out "end architecture rtl;";
  Buffer.contents buf

let system (dp : Dp.t) (m : Fsm.t) =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf (datapath dp);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (fsm m);
  Buffer.add_string buf "\n";
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  header buf;
  let name = sanitize dp.Dp.dp_name in
  out "entity %s_top is" name;
  out "  port (clk : in std_logic; done : out std_logic);";
  out "end entity %s_top;" name;
  out "";
  out "architecture structural of %s_top is" name;
  List.iter
    (fun (c : Dp.control) ->
      out "  signal c_%s : %s;" (sanitize c.Dp.ctl_name) (utype c.Dp.ctl_width))
    dp.Dp.controls;
  List.iter
    (fun (st : Dp.status) ->
      out "  signal s_%s : %s;" (sanitize st.Dp.st_name)
        (utype (Dp.status_width dp st)))
    dp.Dp.statuses;
  out "begin";
  let dp_assocs =
    [ "clk => clk" ]
    @ List.map
        (fun (c : Dp.control) ->
          Printf.sprintf "ctl_%s => c_%s" (sanitize c.Dp.ctl_name)
            (sanitize c.Dp.ctl_name))
        dp.Dp.controls
    @ List.map
        (fun (st : Dp.status) ->
          Printf.sprintf "st_%s => s_%s" (sanitize st.Dp.st_name)
            (sanitize st.Dp.st_name))
        dp.Dp.statuses
  in
  out "  u_dp : entity work.%s port map (%s);" name (String.concat ", " dp_assocs);
  let fsm_assocs =
    [ "clk => clk" ]
    @ List.map
        (fun (i : Fsm.io) ->
          Printf.sprintf "st_%s => s_%s" (sanitize i.Fsm.io_name)
            (sanitize i.Fsm.io_name))
        m.Fsm.inputs
    @ List.map
        (fun (o : Fsm.io) ->
          Printf.sprintf "ctl_%s => c_%s" (sanitize o.Fsm.io_name)
            (sanitize o.Fsm.io_name))
        m.Fsm.outputs
    @ [ "fsm_done => done" ]
  in
  out "  u_fsm : entity work.%s port map (%s);" (sanitize m.Fsm.fsm_name)
    (String.concat ", " fsm_assocs);
  out "end architecture structural;";
  Buffer.contents buf
