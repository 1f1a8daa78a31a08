open Tc_gpu
open Tc_expr
open Cogent
open Tc_autotune

let check = Alcotest.check

let sd2_small =
  Problem.of_string_exn "abcdef-gdab-efgc"
    ~sizes:
      [ ('a', 8); ('b', 8); ('c', 8); ('d', 24); ('e', 24); ('f', 24); ('g', 24) ]

let quick_params =
  { Genetic.default_params with Genetic.population = 20; generations = 5 }

(* ---- Space ---- *)

let space_decodes_valid =
  QCheck.Test.make ~count:150 ~name:"random genomes decode to valid mappings"
    Gen.case_arbitrary (fun c ->
      let st = Random.State.make [| 17 |] in
      let ok = ref true in
      for _ = 1 to 10 do
        let g = Space.random st c.Gen.problem in
        match Space.decode c.Gen.problem g with
        | Some m -> ok := !ok && Mapping.validate c.Gen.problem m = Ok ()
        | None -> ok := false
      done;
      !ok)

let mutation_stays_valid =
  QCheck.Test.make ~count:100 ~name:"mutation and crossover stay decodable"
    Gen.case_arbitrary (fun c ->
      let st = Random.State.make [| 23 |] in
      let a = Space.random st c.Gen.problem in
      let b = Space.random st c.Gen.problem in
      let child = Space.mutate st c.Gen.problem (Space.crossover st a b) in
      Space.decode c.Gen.problem child <> None)

(* Even the unstructured TC-space configurations must compute the right
   answer when executed: the schema's correctness is independent of the
   mapping quality. *)
let space_plans_execute_correctly =
  QCheck.Test.make ~count:50 ~name:"random TC-space plans execute to reference"
    Gen.case_arbitrary (fun c ->
      let st = Random.State.make [| 97 |] in
      let g = Space.random st c.Gen.problem in
      match Space.decode c.Gen.problem g with
      | None -> false
      | Some mapping ->
          let plan =
            Cogent.Plan.make ~problem:c.Gen.problem ~mapping
              ~arch:Tc_gpu.Arch.v100 ~precision:Tc_gpu.Precision.FP64
          in
          let got =
            Cogent.Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs
          in
          Tc_tensor.Dense.equal_approx ~tol:1e-9 (Gen.reference c) got)

let test_space_has_no_register_dims () =
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    let g = Space.random st sd2_small in
    List.iter
      (fun gene ->
        if gene.Space.dim = Space.Regx || gene.Space.dim = Space.Regy then
          Alcotest.fail "TC-era space must not register-tile")
      g.Space.externals
  done

let test_space_size_positive () =
  check Alcotest.bool "positive" true (Space.size sd2_small > 1000.0)

(* ---- Genetic ---- *)

let test_tune_deterministic () =
  let r1 = Genetic.tune ~params:quick_params Arch.v100 Precision.FP32 sd2_small in
  let r2 = Genetic.tune ~params:quick_params Arch.v100 Precision.FP32 sd2_small in
  check (Alcotest.float 1e-9) "same best" r1.Genetic.best_gflops
    r2.Genetic.best_gflops;
  check Alcotest.int "same evaluation count" r1.Genetic.evaluations
    r2.Genetic.evaluations

let test_tune_trace_monotone () =
  let r = Genetic.tune ~params:quick_params Arch.v100 Precision.FP32 sd2_small in
  let rec monotone last = function
    | [] -> true
    | (p : Genetic.trace_point) :: rest ->
        p.Genetic.best_gflops >= last -. 1e-9
        && monotone p.Genetic.best_gflops rest
  in
  check Alcotest.bool "best-so-far is monotone" true (monotone 0.0 r.Genetic.trace);
  let candidates =
    quick_params.Genetic.population
    + (quick_params.Genetic.generations - 1)
      * (quick_params.Genetic.population - quick_params.Genetic.elite)
  in
  check Alcotest.int "one trace point per candidate" candidates
    (List.length r.Genetic.trace);
  check Alcotest.bool "evaluations count distinct simulator calls" true
    (r.Genetic.evaluations > 0
    && r.Genetic.evaluations <= List.length r.Genetic.trace);
  check Alcotest.bool "tuning time accumulates" true (r.Genetic.tuning_time_s > 0.0)

(* Fitness is memoized per decoded mapping: the [eval] hook must fire
   exactly once per distinct mapping, and [evaluations] counts exactly
   those calls.  [eval] may run on pool workers, hence the atomic. *)
let test_memoized_distinct_evaluations () =
  let calls = Atomic.make 0 in
  let eval m =
    Atomic.incr calls;
    (Genetic.fitness Arch.v100 Precision.FP32 sd2_small m, 1e-3)
  in
  let r =
    Genetic.tune ~params:quick_params ~eval Arch.v100 Precision.FP32 sd2_small
  in
  check Alcotest.int "one simulator call per distinct mapping"
    (Atomic.get calls) r.Genetic.evaluations;
  check Alcotest.bool "re-bred duplicates hit the memo" true
    (r.Genetic.evaluations < List.length r.Genetic.trace)

let test_tune_improves_over_random_start () =
  let r = Genetic.tune ~params:quick_params Arch.v100 Precision.FP32 sd2_small in
  let first_best =
    match r.Genetic.trace with p :: _ -> p.Genetic.best_gflops | [] -> 0.0
  in
  check Alcotest.bool "final >= first" true
    (r.Genetic.best_gflops >= first_best)

let test_fitness_zero_for_infeasible () =
  let m =
    {
      Mapping.tbx =
        [ { Mapping.index = 'd'; tile = 24 }; { Mapping.index = 'a'; tile = 8 } ];
      regx = [ { Mapping.index = 'b'; tile = 8 } ];
      tby = [ { Mapping.index = 'e'; tile = 24 }; { Mapping.index = 'f'; tile = 8 } ];
      regy = [ { Mapping.index = 'c'; tile = 8 } ];
      tbk = [ { Mapping.index = 'g'; tile = 24 } ];
      grid = [];
    }
  in
  (* 192x192 threads is far over the hardware limit *)
  check (Alcotest.float 0.0) "zero" 0.0
    (Genetic.fitness Arch.v100 Precision.FP32 sd2_small m)

let test_quality_factor_applied () =
  let m = Tuner.untuned_mapping sd2_small in
  let full = Genetic.fitness ~quality:1.0 Arch.v100 Precision.FP32 sd2_small m in
  let scaled =
    Genetic.fitness ~quality:0.5 Arch.v100 Precision.FP32 sd2_small m
  in
  check (Alcotest.float 1e-9) "scaling" (full /. 2.0) scaled

(* ---- Tuner facade ---- *)

let test_untuned_is_terrible () =
  let p =
    Problem.of_string_exn "abcdef-gdab-efgc"
      ~sizes:
        [ ('a', 16); ('b', 16); ('c', 16); ('d', 48); ('e', 48); ('f', 48); ('g', 48) ]
  in
  let g = Tuner.untuned_gflops Arch.v100 Precision.FP32 p in
  check Alcotest.bool "below 1 GFLOPS (paper Fig. 8)" true (g < 1.0 && g > 0.0)

let test_tuned_beats_untuned () =
  let r = Genetic.tune ~params:quick_params Arch.v100 Precision.FP32 sd2_small in
  let u = Tuner.untuned_gflops Arch.v100 Precision.FP32 sd2_small in
  check Alcotest.bool "tuned much faster" true (r.Genetic.best_gflops > 10.0 *. u)

let test_cogent_beats_tuned_tc () =
  let p =
    Problem.of_string_exn "abcdef-gdab-efgc"
      ~sizes:
        [ ('a', 16); ('b', 16); ('c', 16); ('d', 48); ('e', 48); ('f', 48); ('g', 48) ]
  in
  let cg =
    Tc_sim.Simkernel.gflops
      (Gen.plan_of
         (Ctx.make ~precision:Precision.FP32
            ~measure:Tc_sim.Simkernel.gflops ())
         p)
  in
  let tc =
    (Genetic.tune ~params:quick_params Arch.v100 Precision.FP32 p)
      .Genetic.best_gflops
  in
  check Alcotest.bool "COGENT model-driven beats autotuned TC" true (cg > tc)

let () =
  Alcotest.run "autotune"
    [
      ( "space",
        [
          Gen.to_alcotest space_decodes_valid;
          Gen.to_alcotest mutation_stays_valid;
          Gen.to_alcotest space_plans_execute_correctly;
          Alcotest.test_case "no register dimensions" `Quick
            test_space_has_no_register_dims;
          Alcotest.test_case "space size" `Quick test_space_size_positive;
        ] );
      ( "genetic",
        [
          Alcotest.test_case "deterministic under a seed" `Quick
            test_tune_deterministic;
          Alcotest.test_case "trace is monotone and complete" `Quick
            test_tune_trace_monotone;
          Alcotest.test_case "improves over the initial population" `Quick
            test_tune_improves_over_random_start;
          Alcotest.test_case "memoized distinct evaluations" `Quick
            test_memoized_distinct_evaluations;
          Alcotest.test_case "infeasible fitness is zero" `Quick
            test_fitness_zero_for_infeasible;
          Alcotest.test_case "quality factor" `Quick test_quality_factor_applied;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "untuned TC below 1 GFLOPS" `Quick
            test_untuned_is_terrible;
          Alcotest.test_case "tuned beats untuned" `Quick test_tuned_beats_untuned;
          Alcotest.test_case "COGENT beats tuned TC" `Quick
            test_cogent_beats_tuned_tc;
        ] );
    ]
