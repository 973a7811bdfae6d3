open Thermal_model

let base_grid ?(power = 20.) () =
  let g =
    Grid.create ~nx:4 ~ny:4 ~cell_w:2e-3 ~cell_h:2e-3
      ~layers:[ Grid.silicon; Grid.tim; Grid.copper_spreader ]
      ~sink_conductance:2.0 ~ambient:318.
  in
  (* A hotspot in one corner of the bottom layer. *)
  Grid.set_power g ~layer:0 ~x:0 ~y:0 power;
  g

let test_zero_power_is_ambient () =
  let g =
    Grid.create ~nx:3 ~ny:3 ~cell_w:1e-3 ~cell_h:1e-3 ~layers:[ Grid.silicon ]
      ~sink_conductance:1.0 ~ambient:300.
  in
  Grid.solve g;
  Alcotest.(check (float 1e-3)) "stays at ambient" 300. (Grid.max_temperature g)

let test_power_raises_temperature () =
  let g = base_grid () in
  Grid.solve g;
  Alcotest.(check bool) "above ambient" true (Grid.max_temperature g > 318.);
  Alcotest.(check bool) "hotspot is hottest" true
    (Grid.temperature g ~layer:0 ~x:0 ~y:0
    >= Grid.temperature g ~layer:0 ~x:3 ~y:3)

let test_energy_balance () =
  (* At steady state, all injected power must leave through the sink:
     P = G_sink_per_cell * sum(T_top - T_amb). *)
  let g = base_grid ~power:20. () in
  Grid.solve ~tol:1e-7 g;
  let g_cell = 2.0 /. 16. in
  let out = ref 0. in
  for y = 0 to 3 do
    for x = 0 to 3 do
      out := !out +. (g_cell *. (Grid.temperature g ~layer:2 ~x ~y -. 318.))
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sink carries ~20W (%.2f)" !out)
    true
    (Float.abs (!out -. 20.) < 0.2)

let test_linear_in_power () =
  let solve p =
    let g = base_grid ~power:p () in
    Grid.solve ~tol:1e-7 g;
    Grid.max_temperature g -. 318.
  in
  let d10 = solve 10. and d20 = solve 20. in
  Alcotest.(check bool) "dT doubles with power" true
    (Float.abs ((d20 /. d10) -. 2.) < 0.02)

let test_stack_scenario () =
  let r =
    Stack.simulate ~core_die_power:22.3
      ~l3_bank_powers:(Array.make 8 0.45) ~die_w:9e-3 ~die_h:5.6e-3 ()
  in
  Alcotest.(check bool) "core above ambient" true (r.Stack.max_core_temp > 318.);
  Alcotest.(check bool) "core hotter than L3 (farther from sink)" true
    (r.Stack.max_core_temp >= r.Stack.max_l3_temp);
  Alcotest.(check bool) "plausible junction temp (< 420 K)" true
    (r.Stack.max_core_temp < 420.)

let test_stack_technology_delta_small () =
  (* The paper's Section 4.3 claim: swapping the L3 technology (SRAM's
     ~0.45 W/bank worst case vs COMM-DRAM's ~mW) moves the peak temperature
     by less than 1.5 K. *)
  let run bank_w =
    (Stack.simulate ~core_die_power:22.3
       ~l3_bank_powers:(Array.make 8 bank_w) ~die_w:9e-3 ~die_h:5.6e-3 ())
      .Stack.max_core_temp
  in
  (* COMM-DRAM banks still have dynamic + refresh power; the delta that
     matters is leakage-dominated. *)
  let sram = run 0.45 and comm = run 0.06 in
  let dt = Float.abs (sram -. comm) in
  Alcotest.(check bool)
    (Printf.sprintf "max dT %.2f K < 1.5 K" dt)
    true (dt < 1.5)

let test_non_convergence_is_best_effort () =
  (* Starve the solver of iterations: it must keep the partial temperature
     field and report a structured warning, not fail or return garbage. *)
  let g = base_grid () in
  (* Non-strict solve is quiet and keeps the partial field. *)
  Grid.solve ~max_iter:3 g;
  Alcotest.(check bool) "best-effort field kept" true
    (Grid.max_temperature g > 318.);
  (* Strict turns the warning into a failure naming the diagnostic. *)
  (match Grid.solve ~strict:true ~max_iter:3 (base_grid ()) with
  | () -> Alcotest.fail "converged in 3 sweeps?"
  | exception Failure msg ->
      let tag = "warning[thermal/non_convergence]" in
      Alcotest.(check string) "typed warning" tag
        (String.sub msg 0 (min (String.length msg) (String.length tag))));
  (* With enough iterations the same grid converges. *)
  Grid.solve ~strict:true (base_grid ())

let test_stack_validation () =
  Alcotest.(check bool) "needs 8 banks" true
    (try
       ignore
         (Stack.simulate ~core_die_power:20. ~l3_bank_powers:(Array.make 4 0.1)
            ~die_w:9e-3 ~die_h:5.6e-3 ());
       false
     with Invalid_argument _ -> true)

let prop_hotter_with_more_power =
  QCheck.Test.make ~name:"temperature monotone in power" ~count:20
    QCheck.(pair (float_range 1. 30.) (float_range 1. 10.))
    (fun (p, extra) ->
      let solve pw =
        let g = base_grid ~power:pw () in
        Grid.solve g;
        Grid.max_temperature g
      in
      solve (p +. extra) >= solve p -. 1e-6)

let () =
  Alcotest.run "thermal"
    [
      ( "grid",
        [
          Alcotest.test_case "ambient" `Quick test_zero_power_is_ambient;
          Alcotest.test_case "hotspot" `Quick test_power_raises_temperature;
          Alcotest.test_case "energy balance" `Quick test_energy_balance;
          Alcotest.test_case "linearity" `Quick test_linear_in_power;
          Alcotest.test_case "non-convergence best effort" `Quick
            test_non_convergence_is_best_effort;
          QCheck_alcotest.to_alcotest prop_hotter_with_more_power;
        ] );
      ( "stack",
        [
          Alcotest.test_case "LLC scenario" `Quick test_stack_scenario;
          Alcotest.test_case "technology delta < 1.5K" `Quick
            test_stack_technology_delta_small;
          Alcotest.test_case "validation" `Quick test_stack_validation;
        ] );
    ]
