(* CCSD(T) triples workload, the paper's motivating application (§I).

   The perturbative-triples correction in coupled-cluster theory spends its
   time in 18 contractions of the form t3 += t2 * v2 — 6D output, 4D
   inputs, one contraction index.  This example plans all 18 kernels the
   way a quantum-chemistry runtime would, prints the chosen configurations,
   and compares the three execution strategies of the paper's evaluation
   (COGENT direct, NWChem-style fixed direct, TAL_SH TTGT).

   Run with: dune exec examples/ccsd_t.exe *)

open Tc_gpu

let simulate plan = (Tc_sim.Simkernel.run plan).Tc_sim.Simkernel.gflops

let () =
  let arch = Arch.v100 in
  Format.printf
    "CCSD(T) triples on %s (double precision): 9 SD1 + 9 SD2 kernels@.@."
    arch.Arch.name;
  Format.printf "%-8s %-18s %9s %9s %9s   %s@." "kernel" "contraction" "COGENT"
    "NWChem" "TAL_SH" "selected configuration";
  let total_time strategy =
    List.fold_left (fun acc (_, t) -> acc +. t) 0.0 strategy
  in
  let cogent_times = ref [] and nwchem_times = ref [] and talsh_times = ref [] in
  List.iter
    (fun e ->
      let problem = Tc_tccg.Suite.problem e in
      let r =
        Cogent.Driver.run_exn (Cogent.Ctx.make ~arch ~measure:simulate ()) problem
      in
      let plan = r.Cogent.Driver.plan in
      let cg_sim = Tc_sim.Simkernel.run plan in
      let nw_plan = Tc_nwchem.Nwgen.plan ~arch problem in
      let nw_sim = Tc_sim.Simkernel.run nw_plan in
      let ts = Tc_ttgt.Ttgt.run_ctx (Cogent.Ctx.make ~arch ()) problem in
      cogent_times := (e.Tc_tccg.Suite.name, cg_sim.Tc_sim.Simkernel.time_s) :: !cogent_times;
      nwchem_times := (e.Tc_tccg.Suite.name, nw_sim.Tc_sim.Simkernel.time_s) :: !nwchem_times;
      talsh_times := (e.Tc_tccg.Suite.name, ts.Tc_ttgt.Ttgt.time_s) :: !talsh_times;
      Format.printf "%-8s %-18s %9.0f %9.0f %9.0f   %a@." e.Tc_tccg.Suite.name
        e.Tc_tccg.Suite.expr cg_sim.Tc_sim.Simkernel.gflops
        nw_sim.Tc_sim.Simkernel.gflops ts.Tc_ttgt.Ttgt.gflops
        Cogent.Mapping.pp plan.Cogent.Plan.mapping)
    (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd1
    @ Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd2);
  let cg = total_time !cogent_times
  and nw = total_time !nwchem_times
  and ts = total_time !talsh_times in
  Format.printf
    "@.one triples sweep (all 18 kernels): COGENT %.1f ms | NWChem %.1f ms | \
     TAL_SH %.1f ms@."
    (cg *. 1e3) (nw *. 1e3) (ts *. 1e3);
  Format.printf "COGENT speedup: %.2fx over NWChem, %.2fx over TAL_SH@."
    (nw /. cg) (ts /. cg)
