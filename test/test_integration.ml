(* Cross-library integration: the full pipeline (parse -> classify ->
   enumerate -> prune -> cost -> plan -> simulate / execute / emit) and the
   comparative claims of the paper's evaluation at small scale. *)

open Tc_tensor
open Tc_gpu
open Tc_expr

let check = Alcotest.check
let fail = Alcotest.fail


let test_pipeline_eq1 () =
  let problem =
    Problem.of_string_exn "C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]"
      ~sizes:[ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]
  in
  let r =
    Cogent.Driver.run_exn
      (Cogent.Ctx.make ~arch:Arch.v100 ~measure:Tc_sim.Simkernel.gflops ())
      problem
  in
  let src = Cogent.Codegen.emit r.Cogent.Driver.plan in
  check Alcotest.bool "substantial CUDA" true (String.length src > 2000);
  check Alcotest.bool "pruning removes configurations" true
    (let s = r.Cogent.Driver.prune_stats in
     s.Cogent.Prune.kept < s.Cogent.Prune.enumerated);
  check Alcotest.bool "simulated throughput plausible" true
    (let g = Tc_sim.Simkernel.gflops r.Cogent.Driver.plan in
     g > 100.0 && g < Arch.peak_gflops Arch.v100 Precision.FP64)

let test_three_backends_agree () =
  (* COGENT interpreter, TTGT pipeline and reference einsum all compute the
     same contraction *)
  let problem =
    Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:[ ('a', 6); ('b', 4); ('c', 5); ('d', 3); ('e', 4); ('f', 2) ]
  in
  let lhs = Dense.random ~seed:41 (Problem.lhs_shape problem) in
  let rhs = Dense.random ~seed:42 (Problem.rhs_shape problem) in
  let reference =
    Contract_ref.contract ~out_indices:(Index.list_of_string "abcd") lhs rhs
  in
  let cogent =
    Cogent.Interp.execute (Gen.plan_of Cogent.Ctx.default problem) ~lhs ~rhs
  in
  let ttgt = Tc_ttgt.Ttgt.execute problem ~lhs ~rhs in
  let nwchem =
    Cogent.Interp.execute (Tc_nwchem.Nwgen.plan problem) ~lhs ~rhs
  in
  check Alcotest.bool "cogent == reference" true
    (Dense.equal_approx ~tol:1e-9 reference cogent);
  check Alcotest.bool "ttgt == reference" true
    (Dense.equal_approx ~tol:1e-9 reference ttgt);
  check Alcotest.bool "nwchem plan == reference" true
    (Dense.equal_approx ~tol:1e-9 reference nwchem)

let test_ccsdt_ordering_claim () =
  (* The paper's headline CCSD(T) ordering: COGENT > NWChem > TAL_SH, on
     both devices, at the real benchmark size. *)
  let p = Tc_tccg.Suite.problem Tc_tccg.Suite.sd2_1 in
  List.iter
    (fun arch ->
      let cg =
        Tc_sim.Simkernel.gflops
          (Gen.plan_of
             (Cogent.Ctx.make ~arch ~measure:Tc_sim.Simkernel.gflops ())
             p)
      in
      let nw = Tc_sim.Simkernel.gflops (Tc_nwchem.Nwgen.plan ~arch p) in
      let ts =
        (Tc_ttgt.Ttgt.run_ctx (Cogent.Ctx.make ~arch ()) p).Tc_ttgt.Ttgt.gflops
      in
      if not (cg >= nw && nw > ts) then
        fail
          (Printf.sprintf "%s: COGENT %.0f, NWChem %.0f, TAL_SH %.0f"
             arch.Arch.name cg nw ts))
    [ Arch.p100; Arch.v100 ]

let test_sd1_talsh_transpose_bound () =
  (* §V: "the time spent to transpose the input and output tensors slows
     down TAL_SH" on CCSD(T) *)
  let p =
    Tc_tccg.Suite.problem (Option.get (Tc_tccg.Suite.find "sd1_1"))
  in
  let e = Tc_ttgt.Ttgt.run_ctx Cogent.Ctx.default p in
  check Alcotest.bool "transposes dominate GEMM" true
    (e.Tc_ttgt.Ttgt.transpose_time_s > e.Tc_ttgt.Ttgt.gemm_time_s)

let test_ccsd_4d_talsh_strong () =
  (* §V: on 4D = 4D * 4D contractions the transposition time is very much
     lower than compute, so TAL_SH is competitive *)
  let p = Tc_tccg.Suite.problem (Option.get (Tc_tccg.Suite.find "ccsd_9")) in
  let e = Tc_ttgt.Ttgt.run_ctx Cogent.Ctx.default p in
  check Alcotest.bool "transpose << gemm" true
    (e.Tc_ttgt.Ttgt.transpose_time_s < 0.25 *. e.Tc_ttgt.Ttgt.gemm_time_s);
  let cg =
    Tc_sim.Simkernel.gflops
      (Gen.plan_of
         (Cogent.Ctx.make ~arch:Arch.v100 ~measure:Tc_sim.Simkernel.gflops ())
         p)
  in
  check Alcotest.bool "within 2x of each other" true
    (cg /. e.Tc_ttgt.Ttgt.gflops < 2.0 && e.Tc_ttgt.Ttgt.gflops /. cg < 2.0)

let test_codegen_time_far_below_tuning_time () =
  (* the operational claim: model-driven generation is orders of magnitude
     faster than autotuning *)
  let p = Tc_tccg.Suite.problem Tc_tccg.Suite.sd2_1 in
  let t0 = Sys.time () in
  ignore (Cogent.Driver.run_exn Cogent.Ctx.default p);
  let generation_time = Sys.time () -. t0 in
  check Alcotest.bool "generation under 10 s of CPU" true (generation_time < 10.0)

let test_interp_matches_cuda_structure () =
  (* the emitted kernel and the interpreter share the plan: spot-check that
     the kernel's compile-time constants match the plan the interpreter
     ran *)
  let problem =
    Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 32); ('b', 32); ('c', 32) ]
  in
  let plan = Gen.plan_of Cogent.Ctx.default problem in
  let src = Cogent.Codegen.emit_kernel plan in
  let expect =
    Printf.sprintf "const int tid = ty * %d + tx;" (Cogent.Plan.threads_x plan)
  in
  let has needle =
    let ln = String.length needle and ls = String.length src in
    let rec go i = i + ln <= ls && (String.sub src i ln = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "thread shape embedded" true (has expect)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "Eq. 1 end to end" `Quick test_pipeline_eq1;
          Alcotest.test_case "three backends agree" `Quick
            test_three_backends_agree;
          Alcotest.test_case "kernel constants match plan" `Quick
            test_interp_matches_cuda_structure;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "CCSD(T) ordering" `Quick test_ccsdt_ordering_claim;
          Alcotest.test_case "SD1: TAL_SH transpose-bound" `Quick
            test_sd1_talsh_transpose_bound;
          Alcotest.test_case "4D cases: TAL_SH competitive" `Quick
            test_ccsd_4d_talsh_strong;
          Alcotest.test_case "generation time" `Quick
            test_codegen_time_far_below_tuning_time;
        ] );
    ]
