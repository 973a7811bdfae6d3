type part = {
  pname : string;
  tech_nm : float;
  capacity_bits : int;
  io_bits : int;
  n_banks : int;
  page_bits : int;
  prefetch : int;
  burst : int;
  interface : Cacti.Mainmem.interface;
  data_rate_mts : int;
}

let gbit = 1024 * 1024 * 1024

let ddr3_1066_1gb_x8 =
  {
    pname = "DDR3-1066 1Gb x8 (78nm)";
    tech_nm = 78.;
    capacity_bits = gbit;
    io_bits = 8;
    n_banks = 8;
    page_bits = 8192;
    prefetch = 8;
    burst = 8;
    interface = Cacti.Mainmem.ddr3;
    data_rate_mts = 1066;
  }

let chip p =
  Cacti.Mainmem.create
    ~tech:(Cacti_tech.Technology.at_nm p.tech_nm)
    ~capacity_bits:p.capacity_bits ~n_banks:p.n_banks ~io_bits:p.io_bits
    ~page_bits:p.page_bits ~prefetch:p.prefetch ~burst:p.burst
    ~interface:p.interface ()

let solve ?params p = Cacti.Mainmem.solve ?params (chip p)

let peak_bandwidth p =
  float_of_int (p.data_rate_mts * 1_000_000 * p.io_bits) /. 8.
