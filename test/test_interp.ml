(* The plan interpreter executes exactly the schedule the CUDA generator
   emits; agreement with the reference contraction on adversarial cases
   (non-divisible tiles, swapped operands, grid-mapped externals, empty
   register tiles) validates the code-generation schema itself. *)

open Tc_tensor
open Tc_gpu
open Tc_expr
open Cogent

let fail = Alcotest.fail

let b idx tile = { Mapping.index = idx; tile }

(* Seeded operands as written in the expression, and the reference
   result. *)
let operands problem =
  let info = Problem.info problem in
  let orig = info.Classify.original in
  let shape_of indices = Shape.of_indices ~sizes:(Problem.sizes problem) indices in
  let lhs = Dense.random ~seed:11 (shape_of orig.Ast.lhs.Ast.indices) in
  let rhs = Dense.random ~seed:12 (shape_of orig.Ast.rhs.Ast.indices) in
  (lhs, rhs, Contract_ref.contract ~out_indices:info.Classify.externals lhs rhs)

let check_plan plan ~lhs ~rhs ~expected =
  let got = Interp.execute plan ~lhs ~rhs in
  if not (Dense.equal_approx ~tol:1e-9 expected got) then
    fail
      (Format.asprintf "interp mismatch (%.3e) for %a"
         (Dense.max_abs_diff expected got)
         Plan.pp plan)

let run_case ~expr ~sizes ~mapping =
  let problem = Problem.of_string_exn expr ~sizes in
  let lhs, rhs, expected = operands problem in
  check_plan ~lhs ~rhs ~expected
    (Result.get_ok
       (Plan.make ~problem ~mapping ~arch:Arch.v100 ~precision:Precision.FP64))

let test_gemm_exact_tiles () =
  run_case ~expr:"ab-ac-cb" ~sizes:[ ('a', 16); ('b', 16); ('c', 8) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 8 ];
        regx = [];
        tby = [ b 'b' 8 ];
        regy = [];
        tbk = [ b 'c' 4 ];
        grid = [];
      }

let test_gemm_non_divisible () =
  (* 13, 9, 7 are divisible by none of the tiles *)
  run_case ~expr:"ab-ac-cb" ~sizes:[ ('a', 13); ('b', 9); ('c', 7) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'c' 4 ];
        grid = [];
      }

let test_eq1_with_register_tiles () =
  run_case ~expr:"abcd-aebf-dfce"
    ~sizes:[ ('a', 6); ('b', 5); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [ b 'b' 2 ];
        tby = [ b 'd' 4 ];
        regy = [ b 'c' 2 ];
        tbk = [ b 'e' 2; b 'f' 2 ];
        grid = [];
      }

let test_grid_mapped_externals () =
  run_case ~expr:"abcd-aebf-dfce"
    ~sizes:[ ('a', 6); ('b', 5); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'd' 4 ];
        regy = [];
        tbk = [ b 'e' 3; b 'f' 1 ];
        grid = [ 'b'; 'c' ];
      }

let test_swapped_operands () =
  (* out FVI in the rhs: interp must resolve the canonical swap *)
  run_case ~expr:"abcd-be-aecd"
    ~sizes:[ ('a', 5); ('b', 4); ('c', 3); ('d', 4); ('e', 6) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [ b 'c' 2 ];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'e' 4 ];
        grid = [ 'd' ];
      }

let test_multi_index_thread_dims () =
  (* two indices packed on TBx exercises the mixed-radix decomposition *)
  run_case ~expr:"abcd-aebf-dfce"
    ~sizes:[ ('a', 2); ('b', 3); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 2; b 'b' 2 ];
        regx = [];
        tby = [ b 'd' 4 ];
        regy = [ b 'c' 2 ];
        tbk = [ b 'e' 2; b 'f' 2 ];
        grid = [];
      }

let test_no_internal_outer_product () =
  (* pure outer product: no contraction index at all *)
  run_case ~expr:"ab-a-b" ~sizes:[ ('a', 9); ('b', 6) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [];
        grid = [];
      }

let test_internal_fvi_inputs () =
  (* both inputs have an internal FVI (hardest coalescing case) *)
  run_case ~expr:"ab-cad-dcb"
    ~sizes:[ ('a', 5); ('b', 6); ('c', 4); ('d', 3) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'c' 2; b 'd' 3 ];
        grid = [];
      }

let test_tile_bigger_than_remainder () =
  (* extent 5 with tile 4: the second block is 1 wide *)
  run_case ~expr:"ab-ac-cb" ~sizes:[ ('a', 5); ('b', 5); ('c', 5) ]
    ~mapping:
      {
        Mapping.tbx = [ b 'a' 4 ];
        regx = [];
        tby = [ b 'b' 4 ];
        regy = [];
        tbk = [ b 'c' 4 ];
        grid = [];
      }

(* A 16x16 macro-tile fits the MMA fragments, so A100/fp16 admits all three
   schemas; the extents leave a boundary tile on every axis.  The random
   properties never reach MMA: their extents stay below one fragment. *)
let test_every_schema () =
  let problem =
    Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 33); ('b', 17); ('c', 9) ]
  in
  let mapping =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [];
      tby = [ b 'b' 16 ];
      regy = [];
      tbk = [ b 'c' 8 ];
      grid = [];
    }
  in
  let lhs, rhs, expected = operands problem in
  let plans = Gen.schema_plans problem mapping in
  Alcotest.(check int) "schemas admitted" 3 (List.length plans);
  List.iter
    (fun plan ->
      check_plan plan ~lhs ~rhs ~expected;
      let counters = Interp.measure plan in
      let e =
        Tc_sim.Simkernel.transactions_exact plan.Plan.precision problem mapping
      in
      if
        (counters.Interp.tx_lhs, counters.Interp.tx_rhs, counters.Interp.tx_out)
        <> (e.Cost.lhs, e.Cost.rhs, e.Cost.out)
      then fail (Format.asprintf "measured <> exact for %a" Plan.pp plan))
    plans

let test_shape_mismatch_rejected () =
  let problem =
    Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 4); ('b', 4); ('c', 4) ]
  in
  let plan =
    Result.get_ok
      (Plan.make ~problem
         ~mapping:
           {
             Mapping.tbx = [ b 'a' 4 ];
             regx = [];
             tby = [ b 'b' 4 ];
             regy = [];
             tbk = [ b 'c' 4 ];
             grid = [];
           }
         ~arch:Arch.v100 ~precision:Precision.FP64)
  in
  let bad = Dense.create (Shape.make [ ('a', 4); ('c', 5) ]) in
  let rhs = Dense.create (Shape.make [ ('c', 4); ('b', 4) ]) in
  match Interp.execute plan ~lhs:bad ~rhs with
  | exception Invalid_argument _ -> ()
  | _ -> fail "shape mismatch accepted"

(* The strongest property in the repository: for random contractions, the
   plan COGENT itself selects executes to exactly the reference result —
   and so does its mapping on A100/fp16 under every admitted schema. *)
let interp_matches_reference_on_best_plan =
  QCheck.Test.make ~count:120 ~name:"interp(best plan) == reference"
    Gen.case_arbitrary (fun c ->
      let plan = Gen.plan_of Ctx.default c.Gen.problem in
      let expected = Gen.reference c in
      List.for_all
        (fun plan ->
          Dense.equal_approx ~tol:1e-9 expected
            (Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs))
        (plan :: Gen.schema_plans c.Gen.problem plan.Plan.mapping))

(* And not only for the selected plan: any surviving configuration must
   compute the same function. *)
let interp_matches_reference_on_ranked_plans =
  QCheck.Test.make ~count:25 ~name:"interp(any ranked plan) == reference"
    Gen.case_arbitrary (fun c ->
      let r = Driver.run_exn Ctx.default c.Gen.problem in
      let expected = Gen.reference c in
      let plans = Gen.top_plans ~n:4 r in
      List.for_all
        (fun plan ->
          Dense.equal_approx ~tol:1e-9 expected
            (Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs))
        plans)

(* the precision choice affects resources and codegen, never the schedule's
   host semantics *)
let interp_precision_independent =
  QCheck.Test.make ~count:40 ~name:"interp agrees across precisions"
    Gen.case_arbitrary (fun c ->
      let mapping = (Gen.plan_of Ctx.default c.Gen.problem).Plan.mapping in
      let run precision =
        let plan =
          Result.get_ok
            (Plan.make ~problem:c.Gen.problem ~mapping ~arch:Arch.v100
               ~precision)
        in
        Interp.execute plan ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs
      in
      Dense.equal_approx ~tol:0.0 (run Precision.FP64) (run Precision.FP32))

let () =
  Alcotest.run "interp"
    [
      ( "fixed cases",
        [
          Alcotest.test_case "gemm, exact tiles" `Quick test_gemm_exact_tiles;
          Alcotest.test_case "gemm, non-divisible tiles" `Quick
            test_gemm_non_divisible;
          Alcotest.test_case "Eq. 1 with register tiles" `Quick
            test_eq1_with_register_tiles;
          Alcotest.test_case "grid-mapped externals" `Quick
            test_grid_mapped_externals;
          Alcotest.test_case "swapped operands" `Quick test_swapped_operands;
          Alcotest.test_case "multi-index thread dims" `Quick
            test_multi_index_thread_dims;
          Alcotest.test_case "outer product (no internals)" `Quick
            test_no_internal_outer_product;
          Alcotest.test_case "internal FVIs on both inputs" `Quick
            test_internal_fvi_inputs;
          Alcotest.test_case "boundary remainder tiles" `Quick
            test_tile_bigger_than_remainder;
          Alcotest.test_case "every schema on A100/fp16" `Quick
            test_every_schema;
          Alcotest.test_case "shape mismatch rejected" `Quick
            test_shape_mismatch_rejected;
        ] );
      ( "properties",
        [
          Gen.to_alcotest interp_matches_reference_on_best_plan;
          Gen.to_alcotest interp_matches_reference_on_ranked_plans;
          Gen.to_alcotest interp_precision_independent;
        ] );
    ]
