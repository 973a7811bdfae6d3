type access_mode = Normal | Sequential | Fast

type t = {
  capacity_bytes : int;
  block_bytes : int;
  assoc : int;
  n_banks : int;
  ram : Cacti_tech.Cell.ram_kind;
  tag_ram : Cacti_tech.Cell.ram_kind;
  access_mode : access_mode;
  phys_addr_bits : int;
  status_bits : int;
  sleep_tx : bool;
  tech : Cacti_tech.Technology.t;
}

let sets_per_bank t =
  t.capacity_bytes / (t.block_bytes * t.assoc * t.n_banks)

let tag_bits t =
  let sets_total = sets_per_bank t * t.n_banks in
  t.phys_addr_bits
  - Cacti_util.Floatx.clog2 sets_total
  - Cacti_util.Floatx.clog2 t.block_bytes

let validate t =
  let open Cacti_util in
  let diags = ref [] in
  let err reason fmt =
    Printf.ksprintf
      (fun m -> diags := Diag.error ~component:"cache_spec" ~reason m :: !diags)
      fmt
  in
  if t.capacity_bytes <= 0 then
    err "non_positive" "capacity %d B must be positive" t.capacity_bytes;
  if t.block_bytes <= 0 then
    err "non_positive" "block size %d B must be positive" t.block_bytes
  else if not (Floatx.is_pow2 t.block_bytes) then
    err "non_pow2_block" "block size %d B is not a power of two" t.block_bytes;
  if t.assoc < 1 then err "non_positive" "associativity %d must be >= 1" t.assoc;
  if t.n_banks < 1 then
    err "non_positive" "bank count %d must be >= 1" t.n_banks;
  if t.phys_addr_bits < 1 then
    err "non_positive" "physical address width %d must be >= 1"
      t.phys_addr_bits;
  if t.status_bits < 0 then
    err "non_positive" "status bits %d must be >= 0" t.status_bits;
  if !diags = [] then begin
    if t.capacity_bytes mod (t.block_bytes * t.assoc * t.n_banks) <> 0 then
      err "indivisible_capacity"
        "capacity %d B does not divide into %d bank(s) of %d-way sets of %d \
         B blocks"
        t.capacity_bytes t.n_banks t.assoc t.block_bytes
    else if tag_bits t <= 0 then
      err "address_too_narrow"
        "%d-bit physical address leaves no tag bits for %d sets of %d B \
         blocks"
        t.phys_addr_bits
        (sets_per_bank t * t.n_banks)
        t.block_bytes
  end;
  match List.rev !diags with [] -> Ok t | ds -> Error ds

let create_result ?(block_bytes = 64) ?(assoc = 8) ?(n_banks = 1)
    ?(ram = Cacti_tech.Cell.Sram) ?tag_ram ?(access_mode = Normal)
    ?(phys_addr_bits = 42) ?(status_bits = 2) ?(sleep_tx = false) ~tech
    ~capacity_bytes () =
  let tag_ram = match tag_ram with Some r -> r | None -> ram in
  validate
    {
      capacity_bytes;
      block_bytes;
      assoc;
      n_banks;
      ram;
      tag_ram;
      access_mode;
      phys_addr_bits;
      status_bits;
      sleep_tx;
      tech;
    }

let create ?block_bytes ?assoc ?n_banks ?ram ?tag_ram ?access_mode
    ?phys_addr_bits ?status_bits ?sleep_tx ~tech ~capacity_bytes () =
  match
    create_result ?block_bytes ?assoc ?n_banks ?ram ?tag_ram ?access_mode
      ?phys_addr_bits ?status_bits ?sleep_tx ~tech ~capacity_bytes ()
  with
  | Ok t -> t
  | Error (d :: _) -> invalid_arg ("Cache_spec: " ^ d.Cacti_util.Diag.message)
  | Error [] -> assert false
