// Datapath "gcd_unit" -- generated by fpgatest; do not edit.
module gcd_unit (
  input wire clk,
  input wire ctl_a_en,
  input wire ctl_a_sel,
  input wire ctl_b_en,
  input wire ctl_b_sel,
  input wire [1:0] ctl_asel,
  input wire ctl_we,
  output wire st_gt,
  output wire st_ne
);

  wire [15:0] w_a_q;
  wire [15:0] w_b_q;
  wire [15:0] w_sub_ab_y;
  wire [15:0] w_sub_ba_y;
  wire w_gt_y;
  wire w_ne_y;
  wire [15:0] w_io_dout;
  reg [1:0] w_addr_mux_y;
  wire [1:0] w_addr0_y;
  wire [1:0] w_addr1_y;
  wire [1:0] w_addr2_y;
  reg [15:0] w_mux_a_y;
  reg [15:0] w_mux_b_y;

  reg [15:0] a_state = 16'd0;
  always @(posedge clk) if (ctl_a_en) a_state <= w_mux_a_y;
  assign w_a_q = a_state;
  reg [15:0] b_state = 16'd0;
  always @(posedge clk) if (ctl_b_en) b_state <= w_mux_b_y;
  assign w_b_q = b_state;
  assign w_sub_ab_y = w_a_q - w_b_q;
  assign w_sub_ba_y = w_b_q - w_a_q;
  assign w_gt_y = (w_a_q > w_b_q);
  assign w_ne_y = (w_a_q != w_b_q);
  reg [15:0] mem_io [0:3];
  assign w_io_dout = mem_io[w_addr_mux_y];
  always @(posedge clk) if (ctl_we) mem_io[w_addr_mux_y] <= w_a_q;
  always @* begin
    case (ctl_asel)
      0: w_addr_mux_y = w_addr0_y;
      1: w_addr_mux_y = w_addr1_y;
      default: w_addr_mux_y = w_addr2_y;
    endcase
  end
  assign w_addr0_y = 2'd0;
  assign w_addr1_y = 2'd1;
  assign w_addr2_y = 2'd2;
  always @* begin
    case (ctl_a_sel)
      0: w_mux_a_y = w_io_dout;
      default: w_mux_a_y = w_sub_ab_y;
    endcase
  end
  always @* begin
    case (ctl_b_sel)
      0: w_mux_b_y = w_io_dout;
      default: w_mux_b_y = w_sub_ba_y;
    endcase
  end
`ifndef SYNTHESIS
  always @(w_a_q) $display("probe watch_a: %0d (t=%0t)", w_a_q);
`endif
`ifndef SYNTHESIS
  always @* if (ctl_we && w_a_q != 7)
    $display("check check_result FAILED: got %0d, want 7", w_a_q);
`endif

  assign st_gt = w_gt_y;
  assign st_ne = w_ne_y;
endmodule

// Controller "gcd_ctl" -- generated by fpgatest; do not edit.
module gcd_ctl (
  input wire clk,
  input wire st_gt,
  input wire st_ne,
  output reg ctl_a_en,
  output reg ctl_a_sel,
  output reg ctl_b_en,
  output reg ctl_b_sel,
  output reg [1:0] ctl_asel,
  output reg ctl_we,
  output wire fsm_done
);

  localparam S_load_a = 3'd0;
  localparam S_load_b = 3'd1;
  localparam S_test = 3'd2;
  localparam S_step_a = 3'd3;
  localparam S_step_b = 3'd4;
  localparam S_store = 3'd5;
  localparam S_halt = 3'd6;

  reg [2:0] state = 3'd0;

  // Next-state logic.
  always @(posedge clk) begin
    case (state)
      S_load_a: state <= S_load_b;
      S_load_b: state <= S_test;
      S_test: state <= (st_ne == 0) ? S_store : (st_gt == 1) ? S_step_a : S_step_b;
      S_step_a: state <= S_test;
      S_step_b: state <= S_test;
      S_store: state <= S_halt;
      default: state <= state;
    endcase
  end

  // Moore output decode.
  always @* begin
    ctl_a_en = 0;
    ctl_a_sel = 0;
    ctl_b_en = 0;
    ctl_b_sel = 0;
    ctl_asel = 0;
    ctl_we = 0;
    case (state)
      S_load_a: begin
        ctl_asel = 0;
        ctl_a_en = 1;
        ctl_a_sel = 0;
      end
      S_load_b: begin
        ctl_asel = 1;
        ctl_b_en = 1;
        ctl_b_sel = 0;
      end
      S_step_a: begin
        ctl_a_en = 1;
        ctl_a_sel = 1;
      end
      S_step_b: begin
        ctl_b_en = 1;
        ctl_b_sel = 1;
      end
      S_store: begin
        ctl_asel = 2;
        ctl_we = 1;
      end
      default: ;
    endcase
  end

  assign fsm_done = (state == S_halt);
endmodule

// System top: datapath + controller.
module gcd_unit_top (input wire clk, output wire done);
  wire c_a_en;
  wire c_a_sel;
  wire c_b_en;
  wire c_b_sel;
  wire [1:0] c_asel;
  wire c_we;
  wire s_gt;
  wire s_ne;
  gcd_unit u_dp (.clk(clk), .ctl_a_en(c_a_en), .ctl_a_sel(c_a_sel), .ctl_b_en(c_b_en), .ctl_b_sel(c_b_sel), .ctl_asel(c_asel), .ctl_we(c_we), .st_gt(s_gt), .st_ne(s_ne));
  gcd_ctl u_fsm (.clk(clk), .st_gt(s_gt), .st_ne(s_ne), .ctl_a_en(c_a_en), .ctl_a_sel(c_a_sel), .ctl_b_en(c_b_en), .ctl_b_sel(c_b_sel), .ctl_asel(c_asel), .ctl_we(c_we), .fsm_done(done));
endmodule
