type t = {
  ndwl : int;
  ndbl : int;
  nspd : float;
  deg_bl_mux : int;
  ndsam_lev1 : int;
  ndsam_lev2 : int;
}

let pp ppf t =
  Format.fprintf ppf
    "Ndwl=%d Ndbl=%d Nspd=%g BLmux=%d Ndsam=%dx%d" t.ndwl t.ndbl t.nspd
    t.deg_bl_mux t.ndsam_lev1 t.ndsam_lev2

let to_string t = Format.asprintf "%a" pp t

let mats_x t = max 1 (t.ndwl / 2)
let mats_y t = max 1 (t.ndbl / 2)
let n_mats t = mats_x t * mats_y t

let pow2s upto =
  let rec go v = if v > upto then [] else v :: go (v * 2) in
  go 1

let nspds = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
let bl_muxes ~dram = if dram then [ 1 ] else [ 1; 2; 4; 8 ]
let ndsams = [ 1; 2; 3; 4; 6; 8; 12; 16 ]

let build_candidates ~max_ndwl ~max_ndbl ~dram =
  let bl_muxes = bl_muxes ~dram in
  List.concat_map
    (fun ndwl ->
      List.concat_map
        (fun ndbl ->
          List.concat_map
            (fun nspd ->
              List.concat_map
                (fun deg_bl_mux ->
                  List.concat_map
                    (fun ndsam_lev1 ->
                      List.map
                        (fun ndsam_lev2 ->
                          {
                            ndwl;
                            ndbl;
                            nspd;
                            deg_bl_mux;
                            ndsam_lev1;
                            ndsam_lev2;
                          })
                        ndsams)
                    ndsams)
                bl_muxes)
            nspds)
        (pow2s max_ndbl))
    (pow2s max_ndwl)

(* The default 64x64 grids are pure constants rebuilt for every sweep;
   building one allocates ~60k records, which is measurable against the
   staged sweep cost.  Cache them (mutex-guarded: sweeps may run
   concurrently from several domains).  The lists are immutable, so
   sharing one across callers is safe. *)
let grid_lock = Mutex.create ()
let grid_sram = ref None
let grid_dram = ref None

let candidates ?(max_ndwl = 64) ?(max_ndbl = 64) ~dram () =
  if max_ndwl = 64 && max_ndbl = 64 then
    let cell = if dram then grid_dram else grid_sram in
    Mutex.protect grid_lock (fun () ->
        match !cell with
        | Some l -> l
        | None ->
            let l = build_candidates ~max_ndwl ~max_ndbl ~dram in
            cell := Some l;
            l)
  else build_candidates ~max_ndwl ~max_ndbl ~dram
