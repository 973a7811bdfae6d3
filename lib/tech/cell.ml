type ram_kind = Sram | Lp_dram | Comm_dram

let ram_kind_to_string = function
  | Sram -> "SRAM"
  | Lp_dram -> "LP-DRAM"
  | Comm_dram -> "COMM-DRAM"

let is_dram = function Sram -> false | Lp_dram | Comm_dram -> true

type t = {
  ram : ram_kind;
  area_f2 : float;
  aspect_wh : float;
  access_width_f : float;
  vdd_cell : float;
  storage_cap : float;
  vpp : float;
  retention_time : float;
  i_cell_on : float;
  i_cell_leak : float;
  c_bl_per_cell : float;
  r_bl_per_cell : float;
  c_wl_per_cell : float;
  r_wl_per_cell : float;
}

let width c ~feature_size = sqrt (c.area_f2 *. c.aspect_wh) *. feature_size
let height c ~feature_size = sqrt (c.area_f2 /. c.aspect_wh) *. feature_size
let area c ~feature_size = c.area_f2 *. feature_size *. feature_size

let min_sense_signal = 0.08

let sense_signal c ~c_bitline =
  match c.ram with
  | Sram -> 0.16
  | Lp_dram | Comm_dram ->
      0.5 *. c.vdd_cell *. c.storage_cap /. (c.storage_cap +. c_bitline)

let restore_time c =
  match c.ram with
  | Sram -> 0.
  | Lp_dram | Comm_dram ->
      1.8 *. c.storage_cap *. c.vdd_cell /. c.i_cell_on

let lin a b t = a +. ((b -. a) *. t)

let interpolate a b t =
  assert (a.ram = b.ram);
  {
    ram = a.ram;
    area_f2 = lin a.area_f2 b.area_f2 t;
    aspect_wh = lin a.aspect_wh b.aspect_wh t;
    access_width_f = lin a.access_width_f b.access_width_f t;
    vdd_cell = lin a.vdd_cell b.vdd_cell t;
    storage_cap = lin a.storage_cap b.storage_cap t;
    vpp = lin a.vpp b.vpp t;
    retention_time = lin a.retention_time b.retention_time t;
    i_cell_on = lin a.i_cell_on b.i_cell_on t;
    i_cell_leak = lin a.i_cell_leak b.i_cell_leak t;
    c_bl_per_cell = lin a.c_bl_per_cell b.c_bl_per_cell t;
    r_bl_per_cell = lin a.r_bl_per_cell b.r_bl_per_cell t;
    c_wl_per_cell = lin a.c_wl_per_cell b.c_wl_per_cell t;
    r_wl_per_cell = lin a.r_wl_per_cell b.r_wl_per_cell t;
  }
