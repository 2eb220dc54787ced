library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

-- Datapath "gcd_unit" -- generated by fpgatest; do not edit.
entity gcd_unit is
  port (
    clk : in std_logic;
    ctl_a_en : in unsigned(0 downto 0);
    ctl_a_sel : in unsigned(0 downto 0);
    ctl_b_en : in unsigned(0 downto 0);
    ctl_b_sel : in unsigned(0 downto 0);
    ctl_asel : in unsigned(1 downto 0);
    ctl_we : in unsigned(0 downto 0);
    st_gt : out unsigned(0 downto 0);
    st_ne : out unsigned(0 downto 0)
  );
end entity gcd_unit;

architecture rtl of gcd_unit is
  signal w_a_q : unsigned(15 downto 0) := (others => '0');
  signal w_b_q : unsigned(15 downto 0) := (others => '0');
  signal w_sub_ab_y : unsigned(15 downto 0) := (others => '0');
  signal w_sub_ba_y : unsigned(15 downto 0) := (others => '0');
  signal w_gt_y : unsigned(0 downto 0) := (others => '0');
  signal w_ne_y : unsigned(0 downto 0) := (others => '0');
  signal w_io_dout : unsigned(15 downto 0) := (others => '0');
  type t_mem_io is array (0 to 3) of unsigned(15 downto 0);
  signal mem_io : t_mem_io := (others => (others => '0'));
  signal w_addr_mux_y : unsigned(1 downto 0) := (others => '0');
  signal w_addr0_y : unsigned(1 downto 0) := (others => '0');
  signal w_addr1_y : unsigned(1 downto 0) := (others => '0');
  signal w_addr2_y : unsigned(1 downto 0) := (others => '0');
  signal w_mux_a_y : unsigned(15 downto 0) := (others => '0');
  signal w_mux_b_y : unsigned(15 downto 0) := (others => '0');
begin
  p_a : process (clk) begin
    if rising_edge(clk) then
      if ctl_a_en = 1 then w_a_q <= w_mux_a_y; end if;
    end if;
  end process;
  p_b : process (clk) begin
    if rising_edge(clk) then
      if ctl_b_en = 1 then w_b_q <= w_mux_b_y; end if;
    end if;
  end process;
  w_sub_ab_y <= w_a_q - w_b_q;
  w_sub_ba_y <= w_b_q - w_a_q;
  w_gt_y <= "1" when w_a_q > w_b_q else "0";
  w_ne_y <= "1" when w_a_q /= w_b_q else "0";
  w_io_dout <= mem_io(to_integer(w_addr_mux_y));
  p_io : process (clk) begin
    if rising_edge(clk) then
      if ctl_we = 1 then mem_io(to_integer(w_addr_mux_y)) <= w_a_q; end if;
    end if;
  end process;
  with to_integer(ctl_asel) select
    w_addr_mux_y <= w_addr0_y when 0,
    w_addr_mux_y <= w_addr1_y when 1,
    w_addr_mux_y <= w_addr2_y when others;
  w_addr0_y <= to_unsigned(0, 2);
  w_addr1_y <= to_unsigned(1, 2);
  w_addr2_y <= to_unsigned(2, 2);
  with to_integer(ctl_a_sel) select
    w_mux_a_y <= w_io_dout when 0,
    w_mux_a_y <= w_sub_ab_y when others;
  with to_integer(ctl_b_sel) select
    w_mux_b_y <= w_io_dout when 0,
    w_mux_b_y <= w_sub_ba_y when others;
  -- probe watch_a observes w_a_q (simulation aid)
  p_check_result : process (w_a_q, ctl_we) begin
    assert not (ctl_we = 1 and w_a_q /= 7)
      report "check check_result failed" severity error;
  end process;
  st_gt <= w_gt_y;
  st_ne <= w_ne_y;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

-- Controller "gcd_ctl" -- generated by fpgatest; do not edit.
entity gcd_ctl is
  port (
    clk : in std_logic;
    st_gt : in unsigned(0 downto 0);
    st_ne : in unsigned(0 downto 0);
    ctl_a_en : out unsigned(0 downto 0);
    ctl_a_sel : out unsigned(0 downto 0);
    ctl_b_en : out unsigned(0 downto 0);
    ctl_b_sel : out unsigned(0 downto 0);
    ctl_asel : out unsigned(1 downto 0);
    ctl_we : out unsigned(0 downto 0);
    fsm_done : out std_logic
  );
end entity gcd_ctl;

architecture rtl of gcd_ctl is
  type t_state is (S_load_a, S_load_b, S_test, S_step_a, S_step_b, S_store, S_halt);
  signal state : t_state := S_load_a;
begin
  p_next : process (clk) begin
    if rising_edge(clk) then
      case state is
        when S_load_a =>
          state <= S_load_b;
        when S_load_b =>
          state <= S_test;
        when S_test =>
          if (to_integer(st_ne) = 0) then state <= S_store;
          else
            if (to_integer(st_gt) = 1) then state <= S_step_a; end if;
          end if;
        when S_step_a =>
          state <= S_test;
        when S_step_b =>
          state <= S_test;
        when S_store =>
          state <= S_halt;
        when S_halt =>
          null;
      end case;
    end if;
  end process;

  p_out : process (state) begin
    ctl_a_en <= to_unsigned(0, 1);
    ctl_a_sel <= to_unsigned(0, 1);
    ctl_b_en <= to_unsigned(0, 1);
    ctl_b_sel <= to_unsigned(0, 1);
    ctl_asel <= to_unsigned(0, 2);
    ctl_we <= to_unsigned(0, 1);
    case state is
      when S_load_a =>
        ctl_asel <= to_unsigned(0, 2);
        ctl_a_en <= to_unsigned(1, 1);
        ctl_a_sel <= to_unsigned(0, 1);
      when S_load_b =>
        ctl_asel <= to_unsigned(1, 2);
        ctl_b_en <= to_unsigned(1, 1);
        ctl_b_sel <= to_unsigned(0, 1);
      when S_test =>
        null;
      when S_step_a =>
        ctl_a_en <= to_unsigned(1, 1);
        ctl_a_sel <= to_unsigned(1, 1);
      when S_step_b =>
        ctl_b_en <= to_unsigned(1, 1);
        ctl_b_sel <= to_unsigned(1, 1);
      when S_store =>
        ctl_asel <= to_unsigned(2, 2);
        ctl_we <= to_unsigned(1, 1);
      when S_halt =>
        null;
    end case;
  end process;

  fsm_done <= '1' when state = S_halt else '0';
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity gcd_unit_top is
  port (clk : in std_logic; done : out std_logic);
end entity gcd_unit_top;

architecture structural of gcd_unit_top is
  signal c_a_en : unsigned(0 downto 0);
  signal c_a_sel : unsigned(0 downto 0);
  signal c_b_en : unsigned(0 downto 0);
  signal c_b_sel : unsigned(0 downto 0);
  signal c_asel : unsigned(1 downto 0);
  signal c_we : unsigned(0 downto 0);
  signal s_gt : unsigned(0 downto 0);
  signal s_ne : unsigned(0 downto 0);
begin
  u_dp : entity work.gcd_unit port map (clk => clk, ctl_a_en => c_a_en, ctl_a_sel => c_a_sel, ctl_b_en => c_b_en, ctl_b_sel => c_b_sel, ctl_asel => c_asel, ctl_we => c_we, st_gt => s_gt, st_ne => s_ne);
  u_fsm : entity work.gcd_ctl port map (clk => clk, st_gt => s_gt, st_ne => s_ne, ctl_a_en => c_a_en, ctl_a_sel => c_a_sel, ctl_b_en => c_b_en, ctl_b_sel => c_b_sel, ctl_asel => c_asel, ctl_we => c_we, fsm_done => done);
end architecture structural;
