(* Tensor-times-matrix contractions from machine learning (Tucker-style
   mode products), the first group of the TCCG suite.

   This example demonstrates representative-size-driven specialization
   (§IV-B): the same contraction is planned at three problem sizes, a
   runtime would pick the kernel generated for the nearest representative.
   It also cross-checks the generated schedule numerically at a small size
   and shows where the TTGT strategy is genuinely competitive (large
   GEMM-friendly TTMs). *)

open Tc_tensor
open Tc_gpu
open Tc_expr

let simulate plan = (Tc_sim.Simkernel.run plan).Tc_sim.Simkernel.gflops

let () =
  let arch = Arch.v100 in
  let ctx = Cogent.Ctx.make ~arch ~measure:simulate () in
  let expr = "abc-bda-dc" in
  Format.printf "mode-2 tensor-times-matrix: %s (C[a,b,c] = A[b,d,a] * M[d,c])@.@." expr;

  (* One kernel per representative size: tile choices adapt. *)
  Format.printf "representative-size specialization on %s:@." arch.Arch.name;
  List.iter
    (fun (label, sizes) ->
      let problem = Problem.of_string_exn expr ~sizes in
      let r = Cogent.Driver.run_exn ctx problem in
      Format.printf "  %-22s -> %a  (%.0f GFLOPS)@." label Cogent.Mapping.pp
        r.Cogent.Driver.plan.Cogent.Plan.mapping
        (simulate r.Cogent.Driver.plan))
    [
      ("tall (a=512, d=16)", [ ('a', 512); ('b', 64); ('c', 64); ('d', 16) ]);
      ("square (all 256)", [ ('a', 256); ('b', 256); ('c', 256); ('d', 256) ]);
      ("wide (c=1024, b=16)", [ ('a', 64); ('b', 16); ('c', 1024); ('d', 64) ]);
    ];

  (* Strategy comparison at the TCCG benchmark size. *)
  let e = Option.get (Tc_tccg.Suite.find "ml_1") in
  let problem = Tc_tccg.Suite.problem e in
  let cg = simulate (Cogent.Driver.run_exn ctx problem).Cogent.Driver.plan in
  let ts =
    (Tc_ttgt.Ttgt.run_ctx (Cogent.Ctx.make ~arch ()) problem).Tc_ttgt.Ttgt.gflops
  in
  Format.printf
    "@.at the TCCG size (312^3 x 296): COGENT %.0f GFLOPS, TAL_SH %.0f GFLOPS@."
    cg ts;
  Format.printf
    "(large GEMM-friendly TTMs are where the TTGT approach shines — the \
     direct@. generator wins on the transpose-heavy and odd-layout cases \
     instead)@.";

  (* Numerical check of the generated schedule at a small size. *)
  let small =
    Problem.of_string_exn expr
      ~sizes:[ ('a', 10); ('b', 7); ('c', 6); ('d', 5) ]
  in
  let a = Dense.random ~seed:5 (Problem.lhs_shape small) in
  let m = Dense.random ~seed:6 (Problem.rhs_shape small) in
  let expected = Contract_ref.contract ~out_indices:[ 'a'; 'b'; 'c' ] a m in
  let plan = (Cogent.Driver.run_exn Cogent.Ctx.default small).Cogent.Driver.plan in
  let got = Cogent.Interp.execute plan ~lhs:a ~rhs:m in
  Format.printf "@.schedule validation at 10x7x6 (d=5): max |diff| = %.2e@."
    (Dense.max_abs_diff expected got)
