open Tc_tensor
open Tc_gpu
open Tc_expr
open Tc_ttgt

let check = Alcotest.check
let fail = Alcotest.fail

let sizes6 = [ ('a', 5); ('b', 4); ('c', 3); ('d', 6); ('e', 2); ('f', 3) ]

(* ---- transpose model ---- *)

let test_transpose_identity_free () =
  let sizes = Index.Map.of_seq (List.to_seq [ ('a', 64); ('b', 64) ]) in
  let r =
    Transpose_model.run Arch.v100 Precision.FP64 ~sizes ~src:[ 'a'; 'b' ]
      ~dst:[ 'a'; 'b' ]
  in
  check Alcotest.bool "identity" true r.Transpose_model.identity;
  check (Alcotest.float 0.0) "free" 0.0 r.Transpose_model.time_s

let test_transpose_reads_and_writes_once () =
  let sizes = Index.Map.of_seq (List.to_seq [ ('a', 64); ('b', 64) ]) in
  let r =
    Transpose_model.run Arch.v100 Precision.FP64 ~sizes ~src:[ 'a'; 'b' ]
      ~dst:[ 'b'; 'a' ]
  in
  check (Alcotest.float 1.0) "2 * elems * 8 bytes"
    (2.0 *. 4096.0 *. 8.0)
    r.Transpose_model.bytes

let test_transpose_small_fvi_slower () =
  let mk fvi_extent =
    let sizes =
      Index.Map.of_seq (List.to_seq [ ('a', fvi_extent); ('b', 4096 / fvi_extent) ])
    in
    (Transpose_model.run Arch.v100 Precision.FP64 ~sizes ~src:[ 'a'; 'b' ]
       ~dst:[ 'b'; 'a' ])
      .Transpose_model.efficiency
  in
  check Alcotest.bool "extent-4 FVI less efficient than extent-64" true
    (mk 4 < mk 64)

let test_transpose_rejects_non_permutation () =
  let sizes = Index.Map.of_seq (List.to_seq [ ('a', 8); ('b', 8) ]) in
  match
    Transpose_model.run Arch.v100 Precision.FP64 ~sizes ~src:[ 'a'; 'b' ]
      ~dst:[ 'a'; 'c' ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> fail "non-permutation accepted"

(* ---- GEMM model ---- *)

let test_gemm_large_square_near_peak () =
  let r = Gemm_model.run Arch.v100 Precision.FP64 ~m:8192 ~n:8192 ~k:8192 in
  check Alcotest.bool "at least 70% of peak" true
    (r.Gemm_model.gflops > 0.7 *. Arch.peak_gflops Arch.v100 Precision.FP64);
  check Alcotest.bool "below peak" true
    (r.Gemm_model.gflops < Arch.peak_gflops Arch.v100 Precision.FP64)

let test_gemm_small_k_inefficient () =
  let big = Gemm_model.run Arch.v100 Precision.FP64 ~m:8192 ~n:8192 ~k:2048 in
  let small = Gemm_model.run Arch.v100 Precision.FP64 ~m:8192 ~n:8192 ~k:16 in
  check Alcotest.bool "skinny K much slower" true
    (small.Gemm_model.gflops < big.Gemm_model.gflops /. 2.0)

let test_gemm_skinny_n_inefficient () =
  let sq = Gemm_model.run Arch.v100 Precision.FP64 ~m:4096 ~n:4096 ~k:1024 in
  let sk = Gemm_model.run Arch.v100 Precision.FP64 ~m:4096 ~n:32 ~k:1024 in
  check Alcotest.bool "skinny N slower" true
    (sk.Gemm_model.gflops < sq.Gemm_model.gflops)

let test_gemm_rejects_empty () =
  match Gemm_model.run Arch.v100 Precision.FP64 ~m:0 ~n:4 ~k:4 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty GEMM accepted"

(* ---- TTGT planner ---- *)

let test_plan_eq1_dimensions () =
  let p =
    Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:[ ('a', 8); ('b', 7); ('c', 6); ('d', 5); ('e', 4); ('f', 3) ]
  in
  let t = Ttgt.plan_ctx Cogent.Ctx.default p in
  check Alcotest.int "m = Na*Nb" (8 * 7) t.Ttgt.m;
  check Alcotest.int "n = Nd*Nc" (5 * 6) t.Ttgt.n;
  check Alcotest.int "k = Ne*Nf" (4 * 3) t.Ttgt.k

let test_plan_gemm_compatible_no_permutes () =
  (* abcd-efab-cdef: A = [K@M], B = [N@K], C = [M@N]: zero permutes even in
     the faithful lowering *)
  let p =
    Problem.of_string_exn "abcd-efab-cdef"
      ~sizes:[ ('a', 4); ('b', 4); ('c', 4); ('d', 4); ('e', 4); ('f', 4) ]
  in
  let t = Ttgt.plan_ctx Cogent.Ctx.default p in
  check Alcotest.int "no permutes" 0 (List.length t.Ttgt.permutes)

let test_plan_faithful_always_permutes_output_when_needed () =
  let p = Problem.of_string_exn "abcd-aebf-dfce" ~sizes:sizes6 in
  let t = Ttgt.plan_ctx Cogent.Ctx.default p in
  check Alcotest.bool "has a C permute" true
    (List.exists (fun s -> s.Ttgt.operand = "C") t.Ttgt.permutes)

let test_optimized_plan_not_worse () =
  List.iter
    (fun expr ->
      let p = Problem.of_string_exn expr ~sizes:sizes6 in
      let faithful =
        Ttgt.estimate Arch.v100 Precision.FP64
          (Ttgt.plan_ctx Cogent.Ctx.default p)
      in
      let optimized =
        Ttgt.estimate Arch.v100 Precision.FP64
          (Ttgt.plan_ctx Cogent.Ctx.default ~optimize:true p)
      in
      check Alcotest.bool
        (Printf.sprintf "optimize does not hurt on %s" expr)
        true
        (optimized.Ttgt.time_s <= faithful.Ttgt.time_s +. 1e-12))
    [ "abcd-aebf-dfce"; "abcd-efab-cdef"; "abcd-be-aecd"; "ab-ac-cb" ]

(* The faithful lowering is the search's first variant: M and K in A's
   order, N in B's, no swapped output. *)
let test_faithful_is_first_candidate () =
  let idx = Alcotest.(list (list char)) in
  let orders t = Ttgt.[ t.m_order; t.n_order; t.k_order ] in
  let steps t =
    List.map (fun s -> Ttgt.(s.operand, s.src, s.dst)) t.Ttgt.permutes
  in
  List.iter
    (fun arch ->
      let ctx = Cogent.Ctx.make ~arch () in
      List.iter
        (fun e ->
          let p = Tc_tccg.Suite.problem e in
          let info = Problem.info p in
          let a = info.Classify.expr.Ast.lhs.Ast.indices
          and b = info.Classify.expr.Ast.rhs.Ast.indices in
          let in_order set = List.filter (fun i -> List.mem i set) in
          let f = Ttgt.plan_ctx ctx p and c = List.hd (Ttgt.candidates p) in
          let name what =
            Printf.sprintf "%s %s: %s" e.Tc_tccg.Suite.name arch.Arch.name what
          in
          check idx (name "orders") (orders c) (orders f);
          check idx (name "orders read off A and B")
            [
              in_order info.Classify.lhs_externals a;
              in_order info.Classify.rhs_externals b;
              in_order info.Classify.internals a;
            ]
            (orders f);
          check Alcotest.(list int) (name "m/n/k")
            Ttgt.[ c.m; c.n; c.k ] Ttgt.[ f.m; f.n; f.k ];
          check Alcotest.(list bool) (name "swapped_output") [ false; false ]
            Ttgt.[ c.swapped_output; f.swapped_output ];
          check
            Alcotest.(list (triple string (list char) (list char)))
            (name "permutes") (steps c) (steps f))
        Tc_tccg.Suite.all)
    [ Arch.p100; Arch.v100 ]

let test_estimate_components () =
  let p = Problem.of_string_exn "abcd-aebf-dfce" ~sizes:sizes6 in
  let e = Ttgt.run_ctx Cogent.Ctx.default p in
  check Alcotest.bool "time >= gemm + transposes" true
    (e.Ttgt.time_s >= e.Ttgt.gemm_time_s +. e.Ttgt.transpose_time_s);
  check Alcotest.bool "positive gflops" true (e.Ttgt.gflops > 0.0)

(* ---- planner estimates ---- *)

let test_estimate_no_permutes_no_transpose_cost () =
  let p =
    Problem.of_string_exn "abcd-efab-cdef"
      ~sizes:[ ('a', 4); ('b', 4); ('c', 4); ('d', 4); ('e', 4); ('f', 4) ]
  in
  let e = Ttgt.run_ctx Cogent.Ctx.default p in
  check (Alcotest.float 0.0) "no transpose time" 0.0 e.Ttgt.transpose_time_s;
  check (Alcotest.float 0.0) "no transpose bytes" 0.0 e.Ttgt.transpose_bytes;
  check Alcotest.bool "host overhead on top of the GEMM" true
    (e.Ttgt.time_s > e.Ttgt.gemm_time_s)

let test_estimate_sums_the_permutes () =
  List.iter
    (fun (arch, prec) ->
      let p = Problem.of_string_exn "abcd-aebf-dfce" ~sizes:sizes6 in
      let t = Ttgt.plan_ctx Cogent.Ctx.default p in
      let e = Ttgt.estimate arch prec t in
      let runs =
        List.map
          (fun pm ->
            Transpose_model.run arch prec ~sizes:(Problem.sizes p)
              ~src:pm.Ttgt.src ~dst:pm.Ttgt.dst)
          t.Ttgt.permutes
      in
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
      check Alcotest.bool "some permute" true (t.Ttgt.permutes <> []);
      check (Alcotest.float 1e-15) "transpose time"
        (sum (fun r -> r.Transpose_model.time_s))
        e.Ttgt.transpose_time_s;
      check (Alcotest.float 0.0) "transpose bytes"
        (sum (fun r -> r.Transpose_model.bytes))
        e.Ttgt.transpose_bytes;
      check (Alcotest.float 1e-6) "gflops = flops / time"
        (Problem.flops p /. e.Ttgt.time_s /. 1e9)
        e.Ttgt.gflops)
    [ (Arch.v100, Precision.FP64); (Arch.a100, Precision.FP16) ]

let test_run_ctx_is_estimate_of_plan () =
  let ctx = Cogent.Ctx.make ~arch:Arch.a100 ~precision:Precision.FP32 () in
  List.iter
    (fun optimize ->
      List.iter
        (fun expr ->
          let p = Problem.of_string_exn expr ~sizes:sizes6 in
          let direct =
            Ttgt.estimate Arch.a100 Precision.FP32
              (Ttgt.plan_ctx ctx ~optimize p)
          in
          let e = Ttgt.run_ctx ctx ~optimize p in
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s optimize=%b" expr optimize)
            direct.Ttgt.time_s e.Ttgt.time_s)
        [ "abcd-aebf-dfce"; "abcd-be-aecd"; "ab-ac-cb" ])
    [ false; true ]

(* ---- functional execution ---- *)

let test_execute_eq1 () =
  let p = Problem.of_string_exn "abcd-aebf-dfce" ~sizes:sizes6 in
  let a = Dense.random ~seed:21 (Problem.lhs_shape p) in
  let bt = Dense.random ~seed:22 (Problem.rhs_shape p) in
  let expected = Contract_ref.contract ~out_indices:[ 'a'; 'b'; 'c'; 'd' ] a bt in
  let got = Ttgt.execute p ~lhs:a ~rhs:bt in
  check Alcotest.bool "ttgt == reference" true
    (Dense.equal_approx ~tol:1e-9 expected got)

let ttgt_matches_reference =
  QCheck.Test.make ~count:120 ~name:"ttgt execute == reference"
    Gen.case_arbitrary (fun c ->
      let got = Ttgt.execute c.Gen.problem ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs in
      Dense.equal_approx ~tol:1e-9 (Gen.reference c) got)

let ttgt_optimized_matches_reference =
  QCheck.Test.make ~count:60 ~name:"optimized ttgt execute == reference"
    Gen.case_arbitrary (fun c ->
      let got =
        Ttgt.execute ~optimize:true c.Gen.problem ~lhs:c.Gen.lhs ~rhs:c.Gen.rhs
      in
      Dense.equal_approx ~tol:1e-9 (Gen.reference c) got)

let () =
  Alcotest.run "ttgt"
    [
      ( "transpose model",
        [
          Alcotest.test_case "identity is free" `Quick
            test_transpose_identity_free;
          Alcotest.test_case "bytes = 2 * data" `Quick
            test_transpose_reads_and_writes_once;
          Alcotest.test_case "small FVI penalized" `Quick
            test_transpose_small_fvi_slower;
          Alcotest.test_case "rejects non-permutation" `Quick
            test_transpose_rejects_non_permutation;
        ] );
      ( "gemm model",
        [
          Alcotest.test_case "large square near peak" `Quick
            test_gemm_large_square_near_peak;
          Alcotest.test_case "small K inefficient" `Quick
            test_gemm_small_k_inefficient;
          Alcotest.test_case "skinny N inefficient" `Quick
            test_gemm_skinny_n_inefficient;
          Alcotest.test_case "rejects empty" `Quick test_gemm_rejects_empty;
        ] );
      ( "planner",
        [
          Alcotest.test_case "Eq. 1 GEMM dimensions" `Quick
            test_plan_eq1_dimensions;
          Alcotest.test_case "GEMM-compatible layouts need no permutes" `Quick
            test_plan_gemm_compatible_no_permutes;
          Alcotest.test_case "output permute when layouts differ" `Quick
            test_plan_faithful_always_permutes_output_when_needed;
          Alcotest.test_case "optimized never worse" `Quick
            test_optimized_plan_not_worse;
          Alcotest.test_case "faithful plan is the first candidate" `Quick
            test_faithful_is_first_candidate;
          Alcotest.test_case "estimate components" `Quick
            test_estimate_components;
        ] );
      ( "planner estimates",
        [
          Alcotest.test_case "no permutes, no transpose cost" `Quick
            test_estimate_no_permutes_no_transpose_cost;
          Alcotest.test_case "sums the permutes" `Quick
            test_estimate_sums_the_permutes;
          Alcotest.test_case "run_ctx = estimate of plan_ctx" `Quick
            test_run_ctx_is_estimate_of_plan;
        ] );
      ( "execution",
        [
          Alcotest.test_case "Eq. 1 functional" `Quick test_execute_eq1;
          Gen.to_alcotest ttgt_matches_reference;
          Gen.to_alcotest ttgt_optimized_matches_reference;
        ] );
    ]
