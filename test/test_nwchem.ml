open Tc_gpu
open Tc_expr
open Cogent
open Tc_nwchem

let check = Alcotest.check

let sd2_1 =
  Problem.of_string_exn "abcdef-gdab-efgc"
    ~sizes:
      [ ('a', 16); ('b', 16); ('c', 16); ('d', 48); ('e', 48); ('f', 48); ('g', 48) ]

let test_recipe_shape () =
  (* the fixed recipe anchors a 16-wide X tile on the output FVI and a 4-
     wide register tile on the next available external *)
  let m = Nwgen.mapping sd2_1 in
  (match m.Mapping.tbx with
  | { Mapping.index = 'a'; tile = 16 } :: _ -> ()
  | _ -> Alcotest.fail "tbx must start with a:16");
  check Alcotest.int "regx width" 4 (Mapping.size_regx m);
  check Alcotest.int "tbk depth" 16 (Mapping.size_tbk m)

let test_plan_validates () =
  let plan = Nwgen.plan ~arch:Arch.v100 sd2_1 in
  check Alcotest.bool "valid mapping" true
    (Mapping.validate sd2_1 plan.Plan.mapping = Ok ());
  check Alcotest.bool "fits hardware" true
    (Plan.smem_bytes plan <= Arch.v100.Arch.smem_per_block
    && Plan.threads_per_block plan <= Arch.v100.Arch.max_threads_per_block)

let test_deterministic () =
  let p1 = Nwgen.plan sd2_1 and p2 = Nwgen.plan sd2_1 in
  check Alcotest.bool "same recipe every time" true
    (Mapping.equal p1.Plan.mapping p2.Plan.mapping)

let test_fallback_fits_fp64 () =
  (* big internal extents would overflow smem at full targets; the recipe
     must halve until resident *)
  let p =
    Problem.of_string_exn "ab-acde-edcb"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64); ('d', 64); ('e', 64) ]
  in
  let plan = Nwgen.plan ~arch:Arch.p100 p in
  check Alcotest.bool "resident" true
    (Plan.smem_bytes plan <= Arch.p100.Arch.smem_per_block)

let test_no_search () =
  (* the recipe must not depend on the representative size beyond packing:
     same contraction at two sizes yields the same dimension targets *)
  let q =
    Problem.of_string_exn "abcdef-gdab-efgc"
      ~sizes:
        [ ('a', 16); ('b', 16); ('c', 16); ('d', 96); ('e', 96); ('f', 96); ('g', 96) ]
  in
  let m1 = Nwgen.mapping sd2_1 and m2 = Nwgen.mapping q in
  check Alcotest.int "same TBx width" (Mapping.size_tbx m1) (Mapping.size_tbx m2);
  check Alcotest.int "same register tile" (Mapping.size_regx m1)
    (Mapping.size_regx m2)

let nwchem_never_beats_refined_cogent =
  QCheck.Test.make ~count:30
    ~name:"model-driven COGENT >= fixed-recipe NWChem (simulated)"
    Gen.case_arbitrary (fun c ->
      let cg =
        Tc_sim.Simkernel.gflops
          (Gen.plan_of
             (Ctx.make ~measure:Tc_sim.Simkernel.gflops ~refine:64 ())
             c.Gen.problem)
      in
      let nw = Tc_sim.Simkernel.gflops (Nwgen.plan c.Gen.problem) in
      (* On tiny random problems the fixed recipe can land outside the
         enumerated space and occasionally win by a small margin; the
         model-driven search must stay at least competitive. *)
      cg >= nw *. 0.7)

let nwchem_executes_correctly =
  QCheck.Test.make ~count:60 ~name:"fixed-recipe plans execute to reference"
    Gen.case_arbitrary (fun c ->
      let plan = Nwgen.plan c.Gen.problem in
      let got = Cogent.Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs in
      Tc_tensor.Dense.equal_approx ~tol:1e-9 (Gen.reference c) got)

let nwchem_valid_on_generated =
  QCheck.Test.make ~count:60 ~name:"fixed recipe always valid"
    Gen.case_arbitrary (fun c ->
      let plan = Nwgen.plan c.Gen.problem in
      Mapping.validate c.Gen.problem plan.Plan.mapping = Ok ())

let () =
  Alcotest.run "nwchem"
    [
      ( "nwgen",
        [
          Alcotest.test_case "recipe shape" `Quick test_recipe_shape;
          Alcotest.test_case "plan validates" `Quick test_plan_validates;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "hardware fallback" `Quick test_fallback_fits_fp64;
          Alcotest.test_case "size-independent targets" `Quick test_no_search;
          Gen.to_alcotest nwchem_valid_on_generated;
          Gen.to_alcotest nwchem_executes_correctly;
          Gen.to_alcotest nwchem_never_beats_refined_cogent;
        ] );
    ]
