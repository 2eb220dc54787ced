(* Tests for the VHDL / Verilog emitters (text-level). *)

module Dp = Netlist.Datapath
module Builder = Netlist.Dpbuilder
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard

let check_bool = Alcotest.(check bool)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let sample_dp () =
  let b = Builder.create "dp1" in
  let c = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "3") ] () in
  let r = Builder.add_operator b ~id:"r0" ~kind:Reg ~width:8 () in
  let add = Builder.add_operator b ~id:"add0" ~kind:(Bin Add) ~width:8 () in
  let cmp = Builder.add_operator b ~id:"cmp0" ~kind:(Cmp Lts) ~width:8 () in
  let m =
    Builder.add_operator b ~id:"ram" ~kind:Sram ~width:8
      ~params:[ ("memory", "buf"); ("addr-width", "4"); ("size", "16") ] ()
  in
  let mux =
    Builder.add_operator b ~id:"mux0" ~kind:Mux ~width:8
      ~params:[ ("inputs", "2") ] ()
  in
  Builder.add_control b "en" 1;
  Builder.add_control b "sel" 1;
  Builder.add_control b "we" 1;
  Builder.add_status b ~name:"neg" ~from:(cmp ^ ".y");
  Builder.connect b ~from:(c ^ ".y") [ add ^ ".b"; cmp ^ ".b"; mux ^ ".in0" ];
  Builder.connect b ~from:(r ^ ".q") [ add ^ ".a"; cmp ^ ".a"; m ^ ".din" ];
  Builder.connect b ~from:(add ^ ".y") [ mux ^ ".in1" ];
  Builder.connect b ~from:(mux ^ ".y") [ r ^ ".d" ];
  Builder.connect b ~from:(m ^ ".dout") [];
  Builder.connect b ~from:"ctl.en" [ r ^ ".en" ];
  Builder.connect b ~from:"ctl.sel" [ mux ^ ".sel" ];
  Builder.connect b ~from:"ctl.we" [ m ^ ".we" ];
  (* address: tie to the register output truncated by a zext *)
  let z =
    Builder.add_operator b ~id:"z0" ~kind:Zext ~width:4 ~params:[ ("from", "8") ] ()
  in
  Builder.connect b ~from:(r ^ ".q") [ z ^ ".a" ];
  Builder.connect b ~from:(z ^ ".y") [ m ^ ".addr" ];
  Builder.finish b

let sample_fsm () =
  {
    Fsm.fsm_name = "ctl1";
    inputs = [ { Fsm.io_name = "neg"; io_width = 1; default = 0 } ];
    outputs =
      [
        { Fsm.io_name = "en"; io_width = 1; default = 0 };
        { Fsm.io_name = "sel"; io_width = 1; default = 0 };
        { Fsm.io_name = "we"; io_width = 1; default = 0 };
      ];
    initial = "run";
    states =
      [
        {
          Fsm.sname = "run";
          is_done = false;
          settings = [ ("en", 1); ("sel", 1) ];
          transitions = [ { Fsm.guard = Guard.parse "neg==1"; target = "halt" } ];
        };
        { Fsm.sname = "halt"; is_done = true; settings = []; transitions = [] };
      ];
  }

let test_verilog_datapath () =
  let v = Hdl.Verilog.datapath (sample_dp ()) in
  check_bool "module header" true (contains "module dp1 (" v);
  check_bool "control port" true (contains "input wire ctl_en" v);
  check_bool "status port" true (contains "output wire st_neg" v);
  check_bool "adder" true (contains "assign w_add0_y = w_r0_q + w_const0_y;" v);
  check_bool "signed compare" true (contains "$signed" v);
  check_bool "register always" true (contains "always @(posedge clk) if (ctl_en) r0_state <= w_mux0_y;" v);
  check_bool "memory array" true (contains "reg [7:0] mem_ram [0:15];" v);
  check_bool "mux case" true (contains "case (ctl_sel)" v);
  check_bool "status assign" true (contains "assign st_neg = w_cmp0_y;" v);
  check_bool "endmodule" true (contains "endmodule" v)

let test_verilog_fsm () =
  let v = Hdl.Verilog.fsm (sample_fsm ()) in
  check_bool "module" true (contains "module ctl1 (" v);
  check_bool "localparams" true (contains "localparam S_run" v);
  check_bool "next state" true (contains "S_run: state <= (st_neg == 1) ? S_halt : state;" v);
  check_bool "moore defaults" true (contains "ctl_en = 0;" v);
  check_bool "moore settings" true (contains "ctl_en = 1;" v);
  check_bool "done" true (contains "assign fsm_done = (state == S_halt);" v)

let test_verilog_system () =
  let v = Hdl.Verilog.system (sample_dp ()) (sample_fsm ()) in
  check_bool "top module" true (contains "module dp1_top" v);
  check_bool "dp instance" true (contains "dp1 u_dp (" v);
  check_bool "fsm instance" true (contains "ctl1 u_fsm (" v);
  check_bool "done wired" true (contains ".fsm_done(done)" v)

let test_vhdl_datapath () =
  let v = Hdl.Vhdl.datapath (sample_dp ()) in
  check_bool "library" true (contains "use ieee.numeric_std.all;" v);
  check_bool "entity" true (contains "entity dp1 is" v);
  check_bool "control port" true (contains "ctl_en : in unsigned(0 downto 0)" v);
  check_bool "adder" true (contains "w_add0_y <= w_r0_q + w_const0_y;" v);
  check_bool "memory type" true (contains "type t_mem_ram is array (0 to 15)" v);
  check_bool "register process" true (contains "if rising_edge(clk) then" v);
  check_bool "mux select" true (contains "with to_integer(ctl_sel) select" v);
  check_bool "architecture end" true (contains "end architecture rtl;" v)

let test_vhdl_fsm () =
  let v = Hdl.Vhdl.fsm (sample_fsm ()) in
  check_bool "state type" true (contains "type t_state is (S_run, S_halt);" v);
  check_bool "initial" true (contains "signal state : t_state := S_run;" v);
  check_bool "guard" true (contains "(to_integer(st_neg) = 1)" v);
  check_bool "done" true (contains "fsm_done <= '1' when state = S_halt else '0';" v)

let test_vhdl_system () =
  let v = Hdl.Vhdl.system (sample_dp ()) (sample_fsm ()) in
  check_bool "top entity" true (contains "entity dp1_top is" v);
  check_bool "dp port map" true (contains "u_dp : entity work.dp1 port map" v);
  check_bool "fsm port map" true (contains "u_fsm : entity work.ctl1 port map" v)

let test_emitters_minmax_abs () =
  let b = Builder.create "mm" in
  let c1 = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "3") ] () in
  let c2 = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "9") ] () in
  let mn = Builder.add_operator b ~id:"mn" ~kind:(Bin Mins) ~width:8 () in
  let ab = Builder.add_operator b ~id:"ab" ~kind:(Un Abs) ~width:8 () in
  Builder.connect b ~from:(c1 ^ ".y") [ mn ^ ".a" ];
  Builder.connect b ~from:(c2 ^ ".y") [ mn ^ ".b" ];
  Builder.connect b ~from:(mn ^ ".y") [ ab ^ ".a" ];
  let dp = Builder.finish b in
  let v = Hdl.Verilog.datapath dp in
  check_bool "verilog mins" true (contains "($signed(w_const0_y) <= $signed(w_const1_y))" v);
  check_bool "verilog abs" true (contains "w_mn_y[7] ? -w_mn_y : w_mn_y" v);
  let vh = Hdl.Vhdl.datapath dp in
  check_bool "vhdl mins" true (contains "when signed(w_const0_y) <= signed(w_const1_y)" vh);
  check_bool "vhdl abs" true (contains "abs(signed(w_mn_y))" vh)

let test_systemc_datapath () =
  let v = Hdl.Systemc.datapath (sample_dp ()) in
  check_bool "include" true (contains "#include <systemc.h>" v);
  check_bool "module" true (contains "SC_MODULE(dp1)" v);
  check_bool "control port" true (contains "sc_in<sc_uint<1>> ctl_en;" v);
  check_bool "adder" true (contains "w_add0_y.write(w_r0_q.read() + w_const0_y.read());" v);
  check_bool "memory member" true (contains "sc_uint<8> mem_ram[16];" v);
  check_bool "register seq" true (contains "if (ctl_en.read() == 1) r0_state = w_mux0_y.read();" v);
  check_bool "mux switch" true (contains "switch ((int)ctl_sel.read())" v);
  check_bool "clocked method" true (contains "sensitive << clk.pos();" v)

let test_systemc_fsm () =
  let v = Hdl.Systemc.fsm (sample_fsm ()) in
  check_bool "module" true (contains "SC_MODULE(ctl1)" v);
  check_bool "enum" true (contains "enum state_t { S_run, S_halt };" v);
  check_bool "guard" true (contains "(st_neg.read() == 1)" v);
  check_bool "done" true (contains "fsm_done.write(state == S_halt);" v)

let test_systemc_system () =
  let v = Hdl.Systemc.system (sample_dp ()) (sample_fsm ()) in
  check_bool "top" true (contains "SC_MODULE(dp1_top)" v);
  check_bool "binds dp" true (contains "u_dp.ctl_en(c_en);" v);
  check_bool "binds fsm" true (contains "u_fsm.fsm_done(done);" v)

let test_emitters_on_compiled_design () =
  (* The emitters must accept everything the compiler produces. *)
  let prog =
    Lang.Parser.parse_string (Workloads.Hamming.source ~n:16)
  in
  let c = Compiler.Compile.compile prog in
  List.iter
    (fun (p : Compiler.Compile.partition) ->
      let dp = p.Compiler.Compile.datapath and fsm = p.Compiler.Compile.fsm in
      check_bool "verilog nonempty" true (String.length (Hdl.Verilog.system dp fsm) > 500);
      check_bool "vhdl nonempty" true (String.length (Hdl.Vhdl.system dp fsm) > 500);
      check_bool "systemc nonempty" true
        (String.length (Hdl.Systemc.system dp fsm) > 500))
    c.Compiler.Compile.partitions

(* --- the emission self-check (Hdllint) ----------------------------------- *)

let lint_codes ds = List.sort_uniq compare (List.map (fun d -> d.Diag.code) ds)

let check_lint_code what c ds =
  check_bool
    (Printf.sprintf "%s reports %s (got %s)" what c
       (String.concat "," (lint_codes ds)))
    true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = c) ds)

let test_hdllint_clean_on_emissions () =
  let dp = sample_dp () and fsm = sample_fsm () in
  Alcotest.(check (list string)) "verilog emission clean" []
    (lint_codes (Hdl.Hdllint.verilog (Hdl.Verilog.system dp fsm)));
  Alcotest.(check (list string)) "vhdl emission clean" []
    (lint_codes (Hdl.Hdllint.vhdl (Hdl.Vhdl.system dp fsm)))

let test_hdllint_verilog_codes () =
  check_lint_code "duplicate module" "HDL001"
    (Hdl.Hdllint.verilog
       "module a (); wire x; assign x = 1'd0; endmodule\n\
        module a (); endmodule\n");
  check_lint_code "undeclared identifier" "HDL002"
    (Hdl.Hdllint.verilog "module a (); wire x; assign x = y; endmodule\n");
  check_lint_code "unknown module instantiated" "HDL002"
    (Hdl.Hdllint.verilog
       "module a (); wire x; ghost u_g (.p(x)); endmodule\n");
  check_lint_code "operand width mismatch" "HDL003"
    (Hdl.Hdllint.verilog
       "module a (); wire [7:0] x; wire [3:0] y; wire [7:0] z;\n\
        assign z = x + y; endmodule\n");
  check_lint_code "literal width mismatch" "HDL003"
    (Hdl.Hdllint.verilog
       "module a (); wire [7:0] x; assign x = 4'd3; endmodule\n");
  check_lint_code "computed truncation" "HDL003"
    (Hdl.Hdllint.verilog
       "module a (); wire [7:0] x; wire [3:0] y;\n\
        assign y = x + 8'd1; endmodule\n");
  (* The zext/trunc idiom — a plain identifier copied across widths — is
     intentional and stays silent. *)
  Alcotest.(check (list string)) "identifier copy not flagged" []
    (lint_codes
       (Hdl.Hdllint.verilog
          "module a (); wire [7:0] x; wire [3:0] y; assign y = x; \
           assign x = 8'd1; endmodule\n"))

let test_hdllint_vhdl_codes () =
  check_lint_code "duplicate entity" "HDL001"
    (Hdl.Hdllint.vhdl
       "entity a is port (x : in std_logic); end entity a;\n\
        architecture rtl of a is begin end architecture rtl;\n\
        entity a is port (y : in std_logic); end entity a;\n");
  check_lint_code "undeclared signal" "HDL002"
    (Hdl.Hdllint.vhdl
       "entity a is port (x : in std_logic); end entity a;\n\
        architecture rtl of a is\n\
        signal s : std_logic;\n\
        begin\n\
        s <= ghost;\n\
        end architecture rtl;\n");
  check_lint_code "unknown entity instantiated" "HDL002"
    (Hdl.Hdllint.vhdl
       "entity a is port (x : in std_logic); end entity a;\n\
        architecture rtl of a is\n\
        begin\n\
        u0 : entity work.ghost port map (p => x);\n\
        end architecture rtl;\n");
  check_lint_code "formal not a port" "HDL002"
    (Hdl.Hdllint.vhdl
       "entity b is port (p : in std_logic); end entity b;\n\
        entity a is port (x : in std_logic); end entity a;\n\
        architecture rtl of a is\n\
        begin\n\
        u0 : entity work.b port map (q => x);\n\
        end architecture rtl;\n")

let suite =
  [
    ("verilog datapath", `Quick, test_verilog_datapath);
    ("verilog fsm", `Quick, test_verilog_fsm);
    ("verilog system", `Quick, test_verilog_system);
    ("vhdl datapath", `Quick, test_vhdl_datapath);
    ("vhdl fsm", `Quick, test_vhdl_fsm);
    ("vhdl system", `Quick, test_vhdl_system);
    ("systemc datapath", `Quick, test_systemc_datapath);
    ("systemc fsm", `Quick, test_systemc_fsm);
    ("systemc system", `Quick, test_systemc_system);
    ("emitters min/max/abs", `Quick, test_emitters_minmax_abs);
    ("emitters on compiled design", `Quick, test_emitters_on_compiled_design);
    ("hdllint clean on emissions", `Quick, test_hdllint_clean_on_emissions);
    ("hdllint verilog codes", `Quick, test_hdllint_verilog_codes);
    ("hdllint vhdl codes", `Quick, test_hdllint_vhdl_codes);
  ]
