(* Model-driven selection versus black-box autotuning (§IV, Fig. 8).

   COGENT's analytical cost model picks a configuration in milliseconds; a
   Tensor-Comprehensions-style genetic autotuner evaluates thousands of
   code versions (compile + run each) to approach — and here not reach —
   the same quality.  This example runs a reduced-budget tune on the SD2_1
   kernel so it finishes in a couple of seconds, printing the convergence
   trace that Fig. 8 plots.

   Run with: dune exec examples/autotune_vs_model.exe *)

open Tc_gpu

let () =
  let arch = Arch.v100 and prec = Precision.FP32 in
  let problem = Tc_tccg.Suite.problem Tc_tccg.Suite.sd2_1 in
  let simulate plan = (Tc_sim.Simkernel.run plan).Tc_sim.Simkernel.gflops in

  let t0 = Sys.time () in
  let r =
    Cogent.Driver.run_exn
      (Cogent.Ctx.make ~arch ~precision:prec ~measure:simulate ())
      problem
  in
  let model_time = Sys.time () -. t0 in
  let cogent = simulate r.Cogent.Driver.plan in
  Format.printf
    "COGENT (model-driven):   %.0f GFLOPS, selected in %.0f ms of host time@."
    cogent (model_time *. 1e3);

  let untuned = Tc_autotune.Tuner.untuned_gflops arch prec problem in
  Format.printf "TC default schedule:     %.2f GFLOPS (no tuning)@.@." untuned;

  let params =
    { Tc_autotune.Genetic.default_params with
      Tc_autotune.Genetic.population = 40;
      generations = 10 }
  in
  let tune = Tc_autotune.Tuner.tuned ~params arch prec problem in
  Format.printf "genetic autotuner (%d code versions, ~%.0f s of simulated tuning):@."
    tune.Tc_autotune.Genetic.evaluations tune.Tc_autotune.Genetic.tuning_time_s;
  Format.printf "  %-10s %12s@." "versions" "best GFLOPS";
  List.iter
    (fun (p : Tc_autotune.Genetic.trace_point) ->
      if p.Tc_autotune.Genetic.evaluations mod 40 = 0 then
        Format.printf "  %-10d %12.0f@." p.Tc_autotune.Genetic.evaluations
          p.Tc_autotune.Genetic.best_gflops)
    tune.Tc_autotune.Genetic.trace;
  Format.printf "@.best autotuned: %.0f GFLOPS -> COGENT is %.1fx faster with ~10^5x less tuning work@."
    tune.Tc_autotune.Genetic.best_gflops
    (cogent /. tune.Tc_autotune.Genetic.best_gflops)
