// Datapath "gcd_unit" -- generated by fpgatest; do not edit.
#include <systemc.h>

SC_MODULE(gcd_unit) {
  sc_in<bool> clk;
  sc_in<sc_uint<1>> ctl_a_en;
  sc_in<sc_uint<1>> ctl_a_sel;
  sc_in<sc_uint<1>> ctl_b_en;
  sc_in<sc_uint<1>> ctl_b_sel;
  sc_in<sc_uint<2>> ctl_asel;
  sc_in<sc_uint<1>> ctl_we;
  sc_out<sc_uint<1>> st_gt;
  sc_out<sc_uint<1>> st_ne;

  sc_signal<sc_uint<16>> w_a_q;
  sc_uint<16> a_state;
  sc_signal<sc_uint<16>> w_b_q;
  sc_uint<16> b_state;
  sc_signal<sc_uint<16>> w_sub_ab_y;
  sc_signal<sc_uint<16>> w_sub_ba_y;
  sc_signal<sc_uint<1>> w_gt_y;
  sc_signal<sc_uint<1>> w_ne_y;
  sc_signal<sc_uint<16>> w_io_dout;
  sc_uint<16> mem_io[4];
  sc_signal<sc_uint<2>> w_addr_mux_y;
  sc_signal<sc_uint<2>> w_addr0_y;
  sc_signal<sc_uint<2>> w_addr1_y;
  sc_signal<sc_uint<2>> w_addr2_y;
  sc_signal<sc_uint<16>> w_mux_a_y;
  sc_signal<sc_uint<16>> w_mux_b_y;

  void comb() {
    w_a_q.write(a_state);
    w_b_q.write(b_state);
    w_sub_ab_y.write(w_a_q.read() - w_b_q.read());
    w_sub_ba_y.write(w_b_q.read() - w_a_q.read());
    w_gt_y.write((w_a_q.read() > w_b_q.read()) ? 1 : 0);
    w_ne_y.write((w_a_q.read() != w_b_q.read()) ? 1 : 0);
    w_io_dout.write(mem_io[(int)w_addr_mux_y.read()]);
    switch ((int)ctl_asel.read()) {
      case 0: w_addr_mux_y.write(w_addr0_y.read()); break;
      case 1: w_addr_mux_y.write(w_addr1_y.read()); break;
      default: w_addr_mux_y.write(w_addr2_y.read()); break;
    }
    w_addr0_y.write(0);
    w_addr1_y.write(1);
    w_addr2_y.write(2);
    switch ((int)ctl_a_sel.read()) {
      case 0: w_mux_a_y.write(w_io_dout.read()); break;
      default: w_mux_a_y.write(w_sub_ab_y.read()); break;
    }
    switch ((int)ctl_b_sel.read()) {
      case 0: w_mux_b_y.write(w_io_dout.read()); break;
      default: w_mux_b_y.write(w_sub_ba_y.read()); break;
    }
    st_gt.write(w_gt_y.read());
    st_ne.write(w_ne_y.read());
  }

  void seq() {
    if (ctl_a_en.read() == 1) a_state = w_mux_a_y.read();
    if (ctl_b_en.read() == 1) b_state = w_mux_b_y.read();
    if (ctl_we.read() == 1) mem_io[(int)w_addr_mux_y.read()] = w_a_q.read();
    if (ctl_we.read() == 1 && w_a_q.read() != 7)
      std::cout << "check check_result FAILED at " << sc_time_stamp() << std::endl;
  }

  SC_CTOR(gcd_unit) {
    SC_METHOD(comb);
    sensitive << ctl_a_en << ctl_a_sel << ctl_b_en << ctl_b_sel << ctl_asel << ctl_we << w_a_q << w_b_q << w_sub_ab_y << w_sub_ba_y << w_gt_y << w_ne_y << w_io_dout << w_addr_mux_y << w_addr0_y << w_addr1_y << w_addr2_y << w_mux_a_y << w_mux_b_y;
    SC_METHOD(seq);
    sensitive << clk.pos();
    dont_initialize();
  }
};

// Controller "gcd_ctl" -- generated by fpgatest; do not edit.
#include <systemc.h>

SC_MODULE(gcd_ctl) {
  sc_in<bool> clk;
  sc_in<sc_uint<1>> st_gt;
  sc_in<sc_uint<1>> st_ne;
  sc_out<sc_uint<1>> ctl_a_en;
  sc_out<sc_uint<1>> ctl_a_sel;
  sc_out<sc_uint<1>> ctl_b_en;
  sc_out<sc_uint<1>> ctl_b_sel;
  sc_out<sc_uint<2>> ctl_asel;
  sc_out<sc_uint<1>> ctl_we;
  sc_out<bool> fsm_done;

  enum state_t { S_load_a, S_load_b, S_test, S_step_a, S_step_b, S_store, S_halt };
  state_t state;

  void step() {
    switch (state) {
      case S_load_a:
        state = S_load_b;
        break;
      case S_load_b:
        state = S_test;
        break;
      case S_test:
        if ((st_ne.read() == 0)) { state = S_store; break; }
        if ((st_gt.read() == 1)) { state = S_step_a; break; }
        state = S_step_b;
        break;
      case S_step_a:
        state = S_test;
        break;
      case S_step_b:
        state = S_test;
        break;
      case S_store:
        state = S_halt;
        break;
      case S_halt:
        break;
    }
  }

  void decode() {
    ctl_a_en.write(0);
    ctl_a_sel.write(0);
    ctl_b_en.write(0);
    ctl_b_sel.write(0);
    ctl_asel.write(0);
    ctl_we.write(0);
    switch (state) {
      case S_load_a:
        ctl_asel.write(0);
        ctl_a_en.write(1);
        ctl_a_sel.write(0);
        break;
      case S_load_b:
        ctl_asel.write(1);
        ctl_b_en.write(1);
        ctl_b_sel.write(0);
        break;
      case S_test:
        break;
      case S_step_a:
        ctl_a_en.write(1);
        ctl_a_sel.write(1);
        break;
      case S_step_b:
        ctl_b_en.write(1);
        ctl_b_sel.write(1);
        break;
      case S_store:
        ctl_asel.write(2);
        ctl_we.write(1);
        break;
      case S_halt:
        break;
    }
    fsm_done.write(state == S_halt);
  }

  SC_CTOR(gcd_ctl) : state(S_load_a) {
    SC_METHOD(step);
    sensitive << clk.pos();
    dont_initialize();
    SC_METHOD(decode);
    sensitive << clk;
  }
};

// System top: datapath + controller.
SC_MODULE(gcd_unit_top) {
  sc_in<bool> clk;
  sc_out<bool> done;
  sc_signal<sc_uint<1>> c_a_en;
  sc_signal<sc_uint<1>> c_a_sel;
  sc_signal<sc_uint<1>> c_b_en;
  sc_signal<sc_uint<1>> c_b_sel;
  sc_signal<sc_uint<2>> c_asel;
  sc_signal<sc_uint<1>> c_we;
  sc_signal<sc_uint<1>> s_gt;
  sc_signal<sc_uint<1>> s_ne;
  gcd_unit u_dp;
  gcd_ctl u_fsm;
  SC_CTOR(gcd_unit_top) : u_dp("u_dp"), u_fsm("u_fsm") {
    u_dp.clk(clk);
    u_fsm.clk(clk);
    u_dp.ctl_a_en(c_a_en);
    u_dp.ctl_a_sel(c_a_sel);
    u_dp.ctl_b_en(c_b_en);
    u_dp.ctl_b_sel(c_b_sel);
    u_dp.ctl_asel(c_asel);
    u_dp.ctl_we(c_we);
    u_dp.st_gt(s_gt);
    u_dp.st_ne(s_ne);
    u_fsm.st_gt(s_gt);
    u_fsm.st_ne(s_ne);
    u_fsm.ctl_a_en(c_a_en);
    u_fsm.ctl_a_sel(c_a_sel);
    u_fsm.ctl_b_en(c_b_en);
    u_fsm.ctl_b_sel(c_b_sel);
    u_fsm.ctl_asel(c_asel);
    u_fsm.ctl_we(c_we);
    u_fsm.fsm_done(done);
  }
};
