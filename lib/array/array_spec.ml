type t = {
  ram : Cacti_tech.Cell.ram_kind;
  tech : Cacti_tech.Technology.t;
  n_rows : int;
  row_bits : int;
  output_bits : int;
  max_repeater_delay_penalty : float;
  sleep_tx : bool;
  page_bits : int option;
}

let validate t =
  let diags = ref [] in
  let err reason fmt =
    Printf.ksprintf
      (fun m ->
        diags :=
          Cacti_util.Diag.error ~component:"array_spec" ~reason m :: !diags)
      fmt
  in
  if t.n_rows <= 0 then err "non_positive" "row count %d must be positive" t.n_rows;
  if t.row_bits <= 0 then
    err "non_positive" "row width %d bits must be positive" t.row_bits;
  if t.output_bits <= 0 then
    err "non_positive" "output width %d bits must be positive" t.output_bits;
  (match t.page_bits with
  | Some p when p <= 0 -> err "non_positive" "page size %d bits must be positive" p
  | _ -> ());
  if
    not
      (Float.is_finite t.max_repeater_delay_penalty
      && t.max_repeater_delay_penalty >= 0.)
  then
    err "bad_penalty" "repeater delay penalty %g must be finite and >= 0"
      t.max_repeater_delay_penalty;
  if
    !diags = []
    && t.output_bits > t.n_rows * t.row_bits
  then
    err "output_too_wide" "%d output bits exceed the %d-bit array"
      t.output_bits (t.n_rows * t.row_bits);
  match List.rev !diags with [] -> Ok t | ds -> Error ds

let create ?(max_repeater_delay_penalty = 0.) ?(sleep_tx = false) ?page_bits
    ~ram ~tech ~n_rows ~row_bits ~output_bits () =
  let t =
    { ram; tech; n_rows; row_bits; output_bits;
      max_repeater_delay_penalty; sleep_tx; page_bits }
  in
  match validate t with
  | Ok t -> t
  | Error (d :: _) ->
      invalid_arg ("Array_spec.create: " ^ d.Cacti_util.Diag.message)
  | Error [] -> assert false

let capacity_bits t = t.n_rows * t.row_bits

let addr_bits t =
  let words = capacity_bits t / t.output_bits in
  Cacti_util.Floatx.clog2 (Int.max 2 words)
