type kind =
  | Hp
  | Lstp
  | Lop
  | Hp_long_channel
  | Dram_access_lp
  | Dram_access_comm

type t = {
  kind : kind;
  vdd : float;
  v_th : float;
  l_phy : float;
  c_gate : float;
  c_drain : float;
  i_on_n : float;
  i_on_p : float;
  i_off_n : float;
  i_off_p : float;
  i_gate : float;
  r_sw_factor : float;
  gm_per_ion : float;
  long_channel_leakage_reduction : float;
}

let r_sw_n d = d.r_sw_factor *. d.vdd /. d.i_on_n
let r_sw_p d = d.r_sw_factor *. d.vdd /. d.i_on_p

let leakage_power_inverter d ~w_n ~w_p =
  0.5 *. d.vdd *. ((d.i_off_n *. w_n) +. (d.i_off_p *. w_p))
  +. (0.5 *. d.vdd *. d.i_gate *. (w_n +. w_p))

let gm_n d = d.gm_per_ion *. d.i_on_n

let lin ~a ~b t = a +. ((b -. a) *. t)

let geo ~a ~b t =
  if a <= 0. || b <= 0. then lin ~a ~b t else exp (lin ~a:(log a) ~b:(log b) t)

let interpolate a b t =
  assert (a.kind = b.kind);
  {
    kind = a.kind;
    vdd = lin ~a:a.vdd ~b:b.vdd t;
    v_th = lin ~a:a.v_th ~b:b.v_th t;
    l_phy = lin ~a:a.l_phy ~b:b.l_phy t;
    c_gate = lin ~a:a.c_gate ~b:b.c_gate t;
    c_drain = lin ~a:a.c_drain ~b:b.c_drain t;
    i_on_n = geo ~a:a.i_on_n ~b:b.i_on_n t;
    i_on_p = geo ~a:a.i_on_p ~b:b.i_on_p t;
    i_off_n = geo ~a:a.i_off_n ~b:b.i_off_n t;
    i_off_p = geo ~a:a.i_off_p ~b:b.i_off_p t;
    i_gate = geo ~a:a.i_gate ~b:b.i_gate t;
    r_sw_factor = lin ~a:a.r_sw_factor ~b:b.r_sw_factor t;
    gm_per_ion = lin ~a:a.gm_per_ion ~b:b.gm_per_ion t;
    long_channel_leakage_reduction =
      lin ~a:a.long_channel_leakage_reduction
        ~b:b.long_channel_leakage_reduction t;
  }

let scale_long_channel d =
  {
    d with
    kind = Hp_long_channel;
    l_phy = d.l_phy *. 1.3;
    c_gate = d.c_gate *. 1.25;
    i_on_n = d.i_on_n *. 0.88;
    i_on_p = d.i_on_p *. 0.88;
    i_off_n = d.i_off_n *. d.long_channel_leakage_reduction;
    i_off_p = d.i_off_p *. d.long_channel_leakage_reduction;
    i_gate = d.i_gate *. 0.5;
    long_channel_leakage_reduction = 1.0;
  }
