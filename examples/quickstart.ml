(* Quickstart: generate a GPU kernel for the paper's running example

     C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]          (Eq. 1)

   This walks the full public API: parse, analyse, search, inspect the
   winning configuration, emit CUDA, predict performance on a V100, and
   validate the selected schedule against the reference contraction on a
   small instance.

   Run with: dune exec examples/quickstart.exe *)

open Tc_tensor
open Tc_gpu
open Tc_expr

let () =
  (* 1. A contraction plus a representative problem size.  The size only
     guides configuration selection; the emitted kernel takes extents as
     runtime parameters. *)
  let problem =
    Problem.of_string_exn "C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]"
      ~sizes:[ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]
  in
  let info = Problem.info problem in
  Format.printf "contraction: %a@." Ast.pp info.Classify.original;
  Format.printf "externals:   %a   internals: %a@." Index.list_pp
    info.Classify.externals Index.list_pp info.Classify.internals;

  (* 2. Model-driven search (enumerate -> prune -> rank), refined by
     "running" the top candidates — here on the simulator, on real
     hardware a timed execution. *)
  let simulate plan = (Tc_sim.Simkernel.run plan).Tc_sim.Simkernel.gflops in
  let ctx =
    Cogent.Ctx.make ~arch:Arch.v100 ~precision:Precision.FP64
      ~measure:simulate ()
  in
  let r = Cogent.Driver.run_exn ctx problem in
  let s = r.Cogent.Driver.prune_stats in
  Format.printf
    "@.search: naive space %.2e, enumerated %d, kept %d after pruning@."
    (Cogent.Enumerate.naive_space_size problem)
    s.Cogent.Prune.enumerated s.Cogent.Prune.kept;
  Format.printf "selected plan:@.  %a@." Cogent.Plan.pp r.Cogent.Driver.plan;

  (* 3. The generated CUDA (first lines). *)
  let cuda = Cogent.Codegen.emit r.Cogent.Driver.plan in
  let preview =
    String.concat "\n"
      (List.filteri (fun k _ -> k < 12) (String.split_on_char '\n' cuda))
  in
  Format.printf "@.generated CUDA (first lines of %d bytes):@.%s@.  ...@."
    (String.length cuda) preview;

  (* 4. Predicted performance. *)
  let sim = Tc_sim.Simkernel.run r.Cogent.Driver.plan in
  Format.printf "@.simulated on V100: %.0f GFLOPS (%a, occupancy %.2f)@."
    sim.Tc_sim.Simkernel.gflops Tc_sim.Simkernel.pp_bound
    sim.Tc_sim.Simkernel.bound sim.Tc_sim.Simkernel.occupancy;

  (* 5. Numerical validation of the exact schedule at a small size: the
     interpreter executes the same plan structure the CUDA encodes. *)
  let small =
    Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:[ ('a', 6); ('b', 5); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
  in
  let plan = (Cogent.Driver.run_exn Cogent.Ctx.default small).Cogent.Driver.plan in
  let a = Dense.random ~seed:1 (Problem.lhs_shape small) in
  let b = Dense.random ~seed:2 (Problem.rhs_shape small) in
  let expected =
    Contract_ref.contract ~out_indices:(Index.list_of_string "abcd") a b
  in
  let got = Cogent.Interp.execute plan ~lhs:a ~rhs:b in
  Format.printf "@.schedule validation at 6x5x4x7 (e=3, f=2): max |diff| = %.2e@."
    (Dense.max_abs_diff expected got)
