open Cacti_util

type spec =
  | Cache of Cacti.Cache_spec.t
  | Ram of Cacti.Ram_model.spec
  | Mainmem of Cacti.Mainmem.chip

type params = {
  opt : Cacti.Opt_params.t;
  strict : bool;
  jobs : int option;
  deadline_ms : float option;
}

type request =
  | Solve of { id : Jsonx.t; spec : spec; params : params }
  | Stats of { id : Jsonx.t }

let kind_of_request = function
  | Solve { spec = Cache _; _ } -> "cache"
  | Solve { spec = Ram _; _ } -> "ram"
  | Solve { spec = Mainmem _; _ } -> "mainmem"
  | Stats _ -> "stats"

let request_id j =
  match Jsonx.member "id" j with Some id -> id | None -> Jsonx.Null

(* Feature sizes are a handful of nm with at most a few decimals; rounding
   to 1e-6 nm makes print -> parse -> at_nm reproduce the identical node
   while staying far below any physically meaningful digit. *)
let nm_of_tech t =
  Float.round (Cacti_tech.Technology.feature_size t *. 1e15) /. 1e6

(* ------------------------- decoding helpers ------------------------- *)

(* One collector per decode: every malformed field is reported, mirroring
   the create_result validators. *)
type ctx = { mutable errs : Diag.t list }

let bad ctx fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.errs <-
        Diag.error ~component:"protocol" ~reason:"bad_field" msg :: ctx.errs)
    fmt

let opt_field ctx what get obj key =
  match Jsonx.member key obj with
  | None -> None
  | Some v -> (
      match get v with
      | Some x -> Some x
      | None ->
          bad ctx "field %S must be %s, got %s" key what (Jsonx.to_string v);
          None)

let opt_int ctx = opt_field ctx "an integer" Jsonx.get_int
let opt_float ctx = opt_field ctx "a number" Jsonx.get_float
let opt_bool ctx = opt_field ctx "a boolean" Jsonx.get_bool
let opt_string ctx = opt_field ctx "a string" Jsonx.get_string

let req_int ctx obj key =
  match Jsonx.member key obj with
  | None ->
      bad ctx "missing required field %S" key;
      None
  | Some _ -> opt_int ctx obj key

let opt_enum ctx obj key pairs =
  match opt_string ctx obj key with
  | None -> None
  | Some s -> (
      match List.assoc_opt (String.lowercase_ascii s) pairs with
      | Some v -> Some v
      | None ->
          bad ctx "field %S: unknown value %S (expected %s)" key s
            (String.concat ", " (List.map fst pairs));
          None)

let ram_kinds =
  [
    ("sram", Cacti_tech.Cell.Sram);
    ("lp-dram", Cacti_tech.Cell.Lp_dram);
    ("comm-dram", Cacti_tech.Cell.Comm_dram);
  ]

let ram_kind_name k =
  fst (List.find (fun (_, v) -> v = k) ram_kinds)

let access_modes =
  [
    ("normal", Cacti.Cache_spec.Normal);
    ("sequential", Cacti.Cache_spec.Sequential);
    ("fast", Cacti.Cache_spec.Fast);
  ]

let access_mode_name m =
  fst (List.find (fun (_, v) -> v = m) access_modes)

let opt_presets =
  [
    ("default", Cacti.Opt_params.default);
    ("delay", Cacti.Opt_params.delay_optimal);
    ("area", Cacti.Opt_params.area_optimal);
    ("energy", Cacti.Opt_params.energy_optimal);
  ]

let tech_of ctx obj =
  match Jsonx.member "tech_nm" obj with
  | None ->
      bad ctx "missing required field \"tech_nm\"";
      None
  | Some v -> (
      match Jsonx.get_float v with
      | None ->
          bad ctx "field \"tech_nm\" must be a number, got %s"
            (Jsonx.to_string v);
          None
      | Some nm -> (
          match Cacti_tech.Technology.at_nm nm with
          | tech -> Some tech
          | exception Invalid_argument msg ->
              ctx.errs <-
                Diag.error ~component:"tech" ~reason:"out_of_range" msg
                :: ctx.errs;
              None))

(* ----------------------------- specs -------------------------------- *)

let decode_cache_spec ctx obj =
  let tech = tech_of ctx obj in
  let capacity_bytes = req_int ctx obj "capacity_bytes" in
  let block_bytes = opt_int ctx obj "block_bytes" in
  let assoc = opt_int ctx obj "assoc" in
  let n_banks = opt_int ctx obj "n_banks" in
  let ram = opt_enum ctx obj "ram" ram_kinds in
  let tag_ram = opt_enum ctx obj "tag_ram" ram_kinds in
  let access_mode = opt_enum ctx obj "access_mode" access_modes in
  let phys_addr_bits = opt_int ctx obj "phys_addr_bits" in
  let status_bits = opt_int ctx obj "status_bits" in
  let sleep_tx = opt_bool ctx obj "sleep_tx" in
  match (ctx.errs, tech, capacity_bytes) with
  | [], Some tech, Some capacity_bytes -> (
      match
        Cacti.Cache_spec.create_result ?block_bytes ?assoc ?n_banks ?ram
          ?tag_ram ?access_mode ?phys_addr_bits ?status_bits ?sleep_tx ~tech
          ~capacity_bytes ()
      with
      | Ok s -> Ok (Cache s)
      | Error ds -> Error ds)
  | errs, _, _ -> Error (List.rev errs)

let encode_cache_spec (s : Cacti.Cache_spec.t) =
  let open Cacti.Cache_spec in
  Jsonx.Obj
    [
      ("tech_nm", Jsonx.num (nm_of_tech s.tech));
      ("capacity_bytes", Jsonx.Int s.capacity_bytes);
      ("block_bytes", Jsonx.Int s.block_bytes);
      ("assoc", Jsonx.Int s.assoc);
      ("n_banks", Jsonx.Int s.n_banks);
      ("ram", Jsonx.String (ram_kind_name s.ram));
      ("tag_ram", Jsonx.String (ram_kind_name s.tag_ram));
      ("access_mode", Jsonx.String (access_mode_name s.access_mode));
      ("phys_addr_bits", Jsonx.Int s.phys_addr_bits);
      ("status_bits", Jsonx.Int s.status_bits);
      ("sleep_tx", Jsonx.Bool s.sleep_tx);
    ]

let decode_ram_spec ctx obj =
  let tech = tech_of ctx obj in
  let capacity_bytes = req_int ctx obj "capacity_bytes" in
  let word_bits = opt_int ctx obj "word_bits" in
  let n_banks = opt_int ctx obj "n_banks" in
  let ram = opt_enum ctx obj "ram" ram_kinds in
  let sleep_tx = opt_bool ctx obj "sleep_tx" in
  match (ctx.errs, tech, capacity_bytes) with
  | [], Some tech, Some capacity_bytes -> (
      let spec =
        {
          Cacti.Ram_model.capacity_bytes;
          word_bits = Option.value word_bits ~default:64;
          n_banks = Option.value n_banks ~default:1;
          ram = Option.value ram ~default:Cacti_tech.Cell.Sram;
          sleep_tx = Option.value sleep_tx ~default:false;
          tech;
        }
      in
      match Cacti.Ram_model.validate spec with
      | Ok s -> Ok (Ram s)
      | Error ds -> Error ds)
  | errs, _, _ -> Error (List.rev errs)

let encode_ram_spec (s : Cacti.Ram_model.spec) =
  let open Cacti.Ram_model in
  Jsonx.Obj
    [
      ("tech_nm", Jsonx.num (nm_of_tech s.tech));
      ("capacity_bytes", Jsonx.Int s.capacity_bytes);
      ("word_bits", Jsonx.Int s.word_bits);
      ("n_banks", Jsonx.Int s.n_banks);
      ("ram", Jsonx.String (ram_kind_name s.ram));
      ("sleep_tx", Jsonx.Bool s.sleep_tx);
    ]

let interface_of ctx obj =
  match Jsonx.member "interface" obj with
  | None -> None
  | Some (Jsonx.String s) -> (
      match String.lowercase_ascii s with
      | "ddr3" -> Some Cacti.Mainmem.ddr3
      | "ddr4" -> Some Cacti.Mainmem.ddr4
      | _ ->
          bad ctx "field \"interface\": unknown value %S (expected ddr3, ddr4)" s;
          None)
  | Some (Jsonx.Obj _ as o) -> (
      let name = opt_string ctx o "name" in
      let io_delay = opt_float ctx o "io_delay" in
      let io_energy = opt_float ctx o "io_energy_per_bit" in
      let io_standby = opt_float ctx o "io_standby" in
      match (name, io_delay, io_energy, io_standby) with
      | Some name, Some io_delay, Some io_energy_per_bit, Some io_standby ->
          Some { Cacti.Mainmem.name; io_delay; io_energy_per_bit; io_standby }
      | _ ->
          bad ctx
            "field \"interface\": custom interface needs name, io_delay, \
             io_energy_per_bit, io_standby";
          None)
  | Some v ->
      bad ctx "field \"interface\" must be a string or object, got %s"
        (Jsonx.to_string v);
      None

let encode_interface (i : Cacti.Mainmem.interface) =
  if i = Cacti.Mainmem.ddr3 then Jsonx.String "ddr3"
  else if i = Cacti.Mainmem.ddr4 then Jsonx.String "ddr4"
  else
    Jsonx.Obj
      [
        ("name", Jsonx.String i.Cacti.Mainmem.name);
        ("io_delay", Jsonx.num i.Cacti.Mainmem.io_delay);
        ("io_energy_per_bit", Jsonx.num i.Cacti.Mainmem.io_energy_per_bit);
        ("io_standby", Jsonx.num i.Cacti.Mainmem.io_standby);
      ]

let decode_mainmem_spec ctx obj =
  let tech = tech_of ctx obj in
  let capacity_bits = req_int ctx obj "capacity_bits" in
  let n_banks = opt_int ctx obj "n_banks" in
  let io_bits = opt_int ctx obj "io_bits" in
  let prefetch = opt_int ctx obj "prefetch" in
  let burst = opt_int ctx obj "burst" in
  let page_bits = opt_int ctx obj "page_bits" in
  let ram = opt_enum ctx obj "ram" ram_kinds in
  let interface = interface_of ctx obj in
  match (ctx.errs, tech, capacity_bits) with
  | [], Some tech, Some capacity_bits -> (
      match
        Cacti.Mainmem.create_result ?n_banks ?io_bits ?prefetch ?burst
          ?page_bits ?ram ?interface ~tech ~capacity_bits ()
      with
      | Ok chip -> Ok (Mainmem chip)
      | Error ds -> Error ds)
  | errs, _, _ -> Error (List.rev errs)

let encode_mainmem_spec (c : Cacti.Mainmem.chip) =
  let open Cacti.Mainmem in
  Jsonx.Obj
    [
      ("tech_nm", Jsonx.num (nm_of_tech c.tech));
      ("capacity_bits", Jsonx.Int c.capacity_bits);
      ("n_banks", Jsonx.Int c.n_banks);
      ("io_bits", Jsonx.Int c.io_bits);
      ("prefetch", Jsonx.Int c.prefetch);
      ("burst", Jsonx.Int c.burst);
      ("page_bits", Jsonx.Int c.page_bits);
      ("ram", Jsonx.String (ram_kind_name c.ram));
      ("interface", encode_interface c.interface);
    ]

(* ----------------------------- params ------------------------------- *)

let decode_params ctx obj =
  let preset = opt_enum ctx obj "optimize" opt_presets in
  let base = Option.value preset ~default:Cacti.Opt_params.default in
  let max_area_pct = opt_float ctx obj "max_area_pct" in
  let max_acctime_pct = opt_float ctx obj "max_acctime_pct" in
  let max_rep = opt_float ctx obj "max_repeater_delay_penalty" in
  let weights =
    match Jsonx.member "weights" obj with
    | None -> None
    | Some w ->
        let f key dflt = Option.value (opt_float ctx w key) ~default:dflt in
        let open Cacti.Opt_params in
        Some
          {
            w_dynamic = f "w_dynamic" base.weights.w_dynamic;
            w_leakage = f "w_leakage" base.weights.w_leakage;
            w_cycle = f "w_cycle" base.weights.w_cycle;
            w_interleave = f "w_interleave" base.weights.w_interleave;
          }
  in
  let strict = Option.value (opt_bool ctx obj "strict") ~default:false in
  let jobs = opt_int ctx obj "jobs" in
  let deadline_ms =
    match opt_float ctx obj "deadline_ms" with
    | None -> None
    | Some d when Float.is_finite d && d > 0. -> Some d
    | Some d ->
        bad ctx "field \"deadline_ms\" must be a positive finite number, got %g"
          d;
        None
  in
  let opt =
    {
      Cacti.Opt_params.max_area_pct =
        Option.value max_area_pct ~default:base.Cacti.Opt_params.max_area_pct;
      max_acctime_pct =
        Option.value max_acctime_pct
          ~default:base.Cacti.Opt_params.max_acctime_pct;
      max_repeater_delay_penalty =
        Option.value max_rep
          ~default:base.Cacti.Opt_params.max_repeater_delay_penalty;
      weights =
        Option.value weights ~default:base.Cacti.Opt_params.weights;
    }
  in
  { opt; strict; jobs; deadline_ms }

let encode_params (p : params) =
  let open Cacti.Opt_params in
  let w = p.opt.weights in
  Jsonx.Obj
    (("max_area_pct", Jsonx.num p.opt.max_area_pct)
     :: ("max_acctime_pct", Jsonx.num p.opt.max_acctime_pct)
     :: ( "weights",
          Jsonx.Obj
            [
              ("w_dynamic", Jsonx.num w.w_dynamic);
              ("w_leakage", Jsonx.num w.w_leakage);
              ("w_cycle", Jsonx.num w.w_cycle);
              ("w_interleave", Jsonx.num w.w_interleave);
            ] )
     :: ( "max_repeater_delay_penalty",
          Jsonx.num p.opt.max_repeater_delay_penalty )
     :: ("strict", Jsonx.Bool p.strict)
     :: ((match p.jobs with None -> [] | Some j -> [ ("jobs", Jsonx.Int j) ])
        @
        match p.deadline_ms with
        | None -> []
        | Some d -> [ ("deadline_ms", Jsonx.num d) ]))

(* ---------------------------- requests ------------------------------ *)

let parse_request j =
  match j with
  | Jsonx.Obj _ -> (
      let id = request_id j in
      let ctx = { errs = [] } in
      match opt_string ctx j "kind" with
      | None ->
          Error
            (match ctx.errs with
            | [] ->
                [
                  Diag.error ~component:"protocol" ~reason:"bad_field"
                    "missing required field \"kind\"";
                ]
            | errs -> List.rev errs)
      | Some kind -> (
          let spec_obj =
            match Jsonx.member "spec" j with
            | Some (Jsonx.Obj _ as o) -> o
            | Some v ->
                bad ctx "field \"spec\" must be an object, got %s"
                  (Jsonx.to_string v);
                Jsonx.Obj []
            | None -> Jsonx.Obj []
          in
          let params_obj =
            match Jsonx.member "params" j with
            | Some (Jsonx.Obj _ as o) -> o
            | Some v ->
                bad ctx "field \"params\" must be an object, got %s"
                  (Jsonx.to_string v);
                Jsonx.Obj []
            | None -> Jsonx.Obj []
          in
          match String.lowercase_ascii kind with
          | "stats" -> (
              match ctx.errs with
              | [] -> Ok (Stats { id })
              | errs -> Error (List.rev errs))
          | ("cache" | "ram" | "mainmem") as k -> (
              let params = decode_params ctx params_obj in
              let decode =
                match k with
                | "cache" -> decode_cache_spec
                | "ram" -> decode_ram_spec
                | _ -> decode_mainmem_spec
              in
              match decode ctx spec_obj with
              | Ok spec -> Ok (Solve { id; spec; params })
              | Error ds -> Error ds)
          | k ->
              Error
                [
                  Diag.errorf ~component:"protocol" ~reason:"unknown_kind"
                    "unknown request kind %S (expected cache, ram, mainmem \
                     or stats)"
                    k;
                ]))
  | v ->
      Error
        [
          Diag.errorf ~component:"protocol" ~reason:"bad_request"
            "request must be a JSON object, got %s" (Jsonx.to_string v);
        ]

let encode_request = function
  | Stats { id } -> Jsonx.Obj [ ("id", id); ("kind", Jsonx.String "stats") ]
  | Solve { id; spec; params } ->
      let kind, spec_json =
        match spec with
        | Cache s -> ("cache", encode_cache_spec s)
        | Ram s -> ("ram", encode_ram_spec s)
        | Mainmem c -> ("mainmem", encode_mainmem_spec c)
      in
      Jsonx.Obj
        [
          ("id", id);
          ("kind", Jsonx.String kind);
          ("spec", spec_json);
          ("params", encode_params params);
        ]

(* ---------------------------- responses ----------------------------- *)

let diag_to_json (d : Diag.t) =
  Jsonx.Obj
    [
      ("severity", Jsonx.String (Diag.severity_to_string d.Diag.severity));
      ("component", Jsonx.String d.Diag.component);
      ("reason", Jsonx.String d.Diag.reason);
      ("message", Jsonx.String d.Diag.message);
    ]

let diag_of_json j =
  let str key =
    match Jsonx.member key j with
    | Some (Jsonx.String s) -> Ok s
    | _ -> Error (Printf.sprintf "diagnostic: missing string field %S" key)
  in
  let ( let* ) = Result.bind in
  let* sev = str "severity" in
  let* severity =
    match sev with
    | "info" -> Ok Diag.Info
    | "warning" -> Ok Diag.Warning
    | "error" -> Ok Diag.Error
    | s -> Error (Printf.sprintf "diagnostic: unknown severity %S" s)
  in
  let* component = str "component" in
  let* reason = str "reason" in
  let* message = str "message" in
  Ok (Diag.make severity ~component ~reason message)

let counts_to_json (c : Diag.counts) =
  Jsonx.Obj
    [
      ("candidates", Jsonx.Int c.Diag.candidates);
      ("evaluated", Jsonx.Int c.Diag.evaluated);
      ("geometry_rejected", Jsonx.Int c.Diag.geometry_rejected);
      ("page_rejected", Jsonx.Int c.Diag.page_rejected);
      ("area_pruned", Jsonx.Int c.Diag.area_pruned);
      ("bound_pruned", Jsonx.Int c.Diag.bound_pruned);
      ("nonviable", Jsonx.Int c.Diag.nonviable);
      ("nonfinite", Jsonx.Int c.Diag.nonfinite);
      ("raised", Jsonx.Int c.Diag.raised);
    ]

let summary_to_json (s : Diag.summary) =
  Jsonx.Obj
    [
      ("sweeps", counts_to_json s.Diag.sweeps);
      ("cache_hits", Jsonx.Int s.Diag.cache_hits);
      ("notes", Jsonx.List (List.map diag_to_json s.Diag.notes));
    ]

type response = {
  r_id : Jsonx.t;
  r_ok : bool;
  r_solution : Jsonx.t option;
  r_diagnostics : Diag.t list;
  r_wall_ms : float;
  r_cache_hits : int;
  r_retry_after_ms : float option;
}

let response_to_json r =
  Jsonx.Obj
    (("id", r.r_id)
     :: ("ok", Jsonx.Bool r.r_ok)
     :: ((match r.r_solution with
         | Some s -> [ ("solution", s) ]
         | None -> [])
        @ (match r.r_diagnostics with
          | [] -> []
          | ds -> [ ("diagnostics", Jsonx.List (List.map diag_to_json ds)) ])
        @ (match r.r_retry_after_ms with
          | None -> []
          | Some ms -> [ ("retry_after_ms", Jsonx.num ms) ])
        @ [
            ( "timing",
              Jsonx.Obj
                [
                  ("wall_ms", Jsonx.num r.r_wall_ms);
                  ("cache_hits", Jsonx.Int r.r_cache_hits);
                ] );
          ]))

let response_of_json j =
  let ( let* ) = Result.bind in
  let* ok =
    match Jsonx.member "ok" j with
    | Some (Jsonx.Bool b) -> Ok b
    | _ -> Error "response: missing boolean field \"ok\""
  in
  let timing = Option.value (Jsonx.member "timing" j) ~default:(Jsonx.Obj []) in
  let wall_ms =
    Option.value
      (Option.bind (Jsonx.member "wall_ms" timing) Jsonx.get_float)
      ~default:0.
  in
  let cache_hits =
    Option.value
      (Option.bind (Jsonx.member "cache_hits" timing) Jsonx.get_int)
      ~default:0
  in
  let* diags =
    match Jsonx.member "diagnostics" j with
    | None -> Ok []
    | Some (Jsonx.List l) ->
        List.fold_left
          (fun acc d ->
            let* acc = acc in
            let* d = diag_of_json d in
            Ok (d :: acc))
          (Ok []) l
        |> Result.map List.rev
    | Some _ -> Error "response: \"diagnostics\" must be a list"
  in
  if ok && diags = [] && Jsonx.member "solution" j = None then
    Error "response: ok but no \"solution\""
  else
    Ok
      {
        r_id = request_id j;
        r_ok = ok;
        r_solution = Jsonx.member "solution" j;
        r_diagnostics = diags;
        r_wall_ms = wall_ms;
        r_cache_hits = cache_hits;
        r_retry_after_ms =
          Option.bind (Jsonx.member "retry_after_ms" j) Jsonx.get_float;
      }

(* ---------------------------- solutions ----------------------------- *)

let dram_timing_json (d : Cacti_array.Bank.dram_timing) =
  Jsonx.Obj
    [
      ("t_rcd_s", Jsonx.num d.Cacti_array.Bank.t_rcd);
      ("t_cas_s", Jsonx.num d.Cacti_array.Bank.t_cas);
      ("t_ras_s", Jsonx.num d.Cacti_array.Bank.t_ras);
      ("t_rp_s", Jsonx.num d.Cacti_array.Bank.t_rp);
      ("t_rc_s", Jsonx.num d.Cacti_array.Bank.t_rc);
      ("t_rrd_s", Jsonx.num d.Cacti_array.Bank.t_rrd);
    ]

let cache_solution (c : Cacti.Cache_model.t) =
  let open Cacti.Cache_model in
  Jsonx.Obj
    (("data_org", Jsonx.String (Cacti_array.Org.to_string c.data.Cacti_array.Bank.org))
     :: ("tag_org", Jsonx.String (Cacti_array.Org.to_string c.tag.Cacti_array.Bank.org))
     :: ("t_access_s", Jsonx.num c.t_access)
     :: ("t_random_cycle_s", Jsonx.num c.t_random_cycle)
     :: ("t_interleave_s", Jsonx.num c.t_interleave)
     :: ((match c.dram with
         | Some d -> [ ("dram_timing", dram_timing_json d) ]
         | None -> [])
        @ [
            ("e_read_j", Jsonx.num c.e_read);
            ("e_write_j", Jsonx.num c.e_write);
            ("p_leakage_w", Jsonx.num c.p_leakage);
            ("p_refresh_w", Jsonx.num c.p_refresh);
            ("area_m2", Jsonx.num c.area);
            ("area_per_bank_m2", Jsonx.num c.area_per_bank);
            ("area_efficiency", Jsonx.num c.area_efficiency);
            ("pipeline_stages", Jsonx.Int c.pipeline_stages);
          ]))

let ram_solution (r : Cacti.Ram_model.t) =
  let open Cacti.Ram_model in
  Jsonx.Obj
    (("org", Jsonx.String (Cacti_array.Org.to_string r.bank.Cacti_array.Bank.org))
     :: ("t_access_s", Jsonx.num r.t_access)
     :: ("t_random_cycle_s", Jsonx.num r.t_random_cycle)
     :: ("t_interleave_s", Jsonx.num r.t_interleave)
     :: ((match r.dram with
         | Some d -> [ ("dram_timing", dram_timing_json d) ]
         | None -> [])
        @ [
            ("e_read_j", Jsonx.num r.e_read);
            ("e_write_j", Jsonx.num r.e_write);
            ("p_leakage_w", Jsonx.num r.p_leakage);
            ("p_refresh_w", Jsonx.num r.p_refresh);
            ("area_m2", Jsonx.num r.area);
            ("area_efficiency", Jsonx.num r.area_efficiency);
          ]))

let mainmem_solution (m : Cacti.Mainmem.t) =
  let open Cacti.Mainmem in
  Jsonx.Obj
    [
      ("bank_org", Jsonx.String (Cacti_array.Org.to_string m.bank.Cacti_array.Bank.org));
      ("t_rcd_s", Jsonx.num m.t_rcd);
      ("t_cas_s", Jsonx.num m.t_cas);
      ("t_ras_s", Jsonx.num m.t_ras);
      ("t_rp_s", Jsonx.num m.t_rp);
      ("t_rc_s", Jsonx.num m.t_rc);
      ("t_rrd_s", Jsonx.num m.t_rrd);
      ("t_access_s", Jsonx.num m.t_access);
      ("e_activate_j", Jsonx.num m.e_activate);
      ("e_read_j", Jsonx.num m.e_read);
      ("e_write_j", Jsonx.num m.e_write);
      ("p_refresh_w", Jsonx.num m.p_refresh);
      ("p_standby_w", Jsonx.num m.p_standby);
      ("area_m2", Jsonx.num m.area);
      ("area_efficiency", Jsonx.num m.area_efficiency);
    ]
