(* Ablation studies for the design choices DESIGN.md calls out:

   1. selection quality: pure model ranking vs measured refinement of the
      top 8 vs the simulator-oracle over every surviving configuration;
   2. cost-model fidelity: Spearman rank correlation between Algorithm 3's
      ranking and the simulator's, per suite entry;
   3. performance-constraint value (§IV-A2): best configuration with
      hardware-only pruning and model-only selection, vs the full rules;
   4. the TTGT planner extension: TAL_SH-faithful permutes vs the
      cheapest-permutation search.

   Each study also returns one summary [Tc_profile.Benchrep.entry] so the
   BENCH_ablation.json report captures its headline numbers. *)

open Tc_gpu

let arch = Arch.v100
let prec = Precision.FP64

let plan_of problem mapping =
  match Cogent.Plan.make ~problem ~mapping ~arch ~precision:prec with
  | Ok plan -> plan
  | Error e -> failwith e

(* Studies 1 and 2 sweep *every* surviving configuration (oracle search,
   rank correlation): the planner's search with a heap as large as the
   candidate space keeps them all. *)
let full_ranking problem =
  (Cogent.Pipeline.search ~topk:max_int arch prec problem).Cogent.Pipeline.ranked

(* The driver's plan, refined on the simulator. *)
let refined problem =
  let ctx =
    Cogent.Ctx.make ~arch ~precision:prec ~measure:Tc_sim.Simkernel.gflops ()
  in
  Tc_sim.Simkernel.gflops
    (Cogent.Driver.run_exn ctx problem).Cogent.Driver.plan

(* Geomean of a/b over pairs, dropping non-finite ratios so a degenerate
   study cannot poison the JSON report. *)
let geo pairs =
  Report.geomean
    (List.filter Float.is_finite (List.map (fun (a, b) -> a /. b) pairs))

let summary_entry name metrics =
  Figures.bench_entry ~name ~expr:"(suite summary)" arch prec
    [ Figures.strat "summary" metrics ]

let spearman xs ys =
  (* rank correlation without tie correction (ties are rare here) *)
  let rank v =
    let sorted = List.sort Float.compare v in
    List.map
      (fun x ->
        let rec idx k = function
          | [] -> k
          | y :: rest -> if y >= x then k else idx (k + 1) rest
        in
        float_of_int (idx 0 sorted))
      v
  in
  let rx = rank xs and ry = rank ys in
  let n = float_of_int (List.length xs) in
  if n < 2.0 then nan
  else
    let d2 =
      List.fold_left2 (fun acc a b -> acc +. ((a -. b) ** 2.0)) 0.0 rx ry
    in
    1.0 -. (6.0 *. d2 /. (n *. ((n *. n) -. 1.0)))

let selection () =
  Report.section
    "Ablation 1 — configuration selection (V100, FP64): model-only vs \
     top-8 refinement vs simulator oracle";
  Printf.printf "%-8s %10s %10s %10s %12s\n" "name" "model" "refined"
    "oracle" "model/oracle";
  Report.hrule 56;
  (* Suite entries are independent: compute on the domain pool, print in
     suite order afterwards so stdout is identical at any job count. *)
  let rows =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let ranking = full_ranking problem in
        let model =
          match ranking with
          | (m, _) :: _ -> Tc_sim.Simkernel.gflops (plan_of problem m)
          | [] -> nan
        in
        let refined = refined problem in
        let oracle =
          List.fold_left
            (fun acc (m, _) ->
              Float.max acc (Tc_sim.Simkernel.gflops (plan_of problem m)))
            0.0 ranking
        in
        (e, model, refined, oracle))
      Tc_tccg.Suite.all
  in
  List.iter
    (fun (e, model, refined, oracle) ->
      Printf.printf "%-8s %10.0f %10.0f %10.0f %11.0f%%\n" e.Tc_tccg.Suite.name
        model refined oracle
        (100.0 *. model /. oracle))
    rows;
  let ratios_model =
    List.rev_map (fun (_, model, _, oracle) -> (model, oracle)) rows
  and ratios_refined =
    List.rev_map (fun (_, _, refined, oracle) -> (refined, oracle)) rows
  in
  print_newline ();
  Report.speedup_summary ~name:"model-only" ~base:"oracle" ratios_model;
  Report.speedup_summary ~name:"top-8 refined" ~base:"oracle" ratios_refined;
  summary_entry "selection"
    (Figures.finite "model_vs_oracle" (geo ratios_model)
    @ Figures.finite "refined_vs_oracle" (geo ratios_refined))

let correlation () =
  Report.section
    "Ablation 2 — Algorithm 3 fidelity: Spearman correlation of model cost \
     vs simulated time over surviving configurations";
  Printf.printf "%-8s %8s %8s\n" "name" "configs" "rho";
  Report.hrule 30;
  let rows =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let ranking = full_ranking problem in
        let costs = List.map snd ranking in
        let times =
          List.map
            (fun (m, _) ->
              (Tc_sim.Simkernel.run (plan_of problem m)).Tc_sim.Simkernel.time_s)
            ranking
        in
        (e, List.length costs, spearman costs times))
      Tc_tccg.Suite.all
  in
  let rhos =
    List.map
      (fun (e, n, rho) ->
        Printf.printf "%-8s %8d %8.2f\n" e.Tc_tccg.Suite.name n rho;
        rho)
      rows
  in
  let mean_rho =
    List.fold_left ( +. ) 0.0 rhos /. float_of_int (List.length rhos)
  in
  Printf.printf "\nmean rho: %.2f (1.0 = the model orders configurations exactly as the simulator does)\n"
    mean_rho;
  summary_entry "correlation" (Figures.finite "mean_rho" mean_rho)

let constraints () =
  Report.section
    "Ablation 3 — value of the §IV-A2 performance constraints (model-only \
     selection)";
  Printf.printf "%-8s %12s %12s %9s\n" "name" "full rules" "hw-only" "gain";
  Report.hrule 46;
  let gains =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let pick performance =
          match
            (Cogent.Pipeline.search ~performance ~topk:1 arch prec problem)
              .Cogent.Pipeline.ranked
          with
          | (m, _) :: _ -> Some (Tc_sim.Simkernel.gflops (plan_of problem m))
          | [] -> None
        in
        match (pick true, pick false) with
        | Some full, Some hw -> Some (e, full, hw)
        | _ -> None)
      Tc_tccg.Suite.all
    |> List.filter_map (fun row ->
           Option.map
             (fun (e, full, hw) ->
               Printf.printf "%-8s %12.0f %12.0f %8.2fx\n" e.Tc_tccg.Suite.name
                 full hw (full /. hw);
               (full, hw))
             row)
  in
  print_newline ();
  Report.speedup_summary ~name:"full rules" ~base:"hardware-only" gains;
  summary_entry "constraints" (Figures.finite "full_vs_hw" (geo gains))

let ttgt_planner () =
  Report.section
    "Ablation 4 — TTGT planner: TAL_SH-faithful permutes vs \
     cheapest-permutation search (extension)";
  Printf.printf "%-8s %10s %10s %9s\n" "name" "faithful" "optimized" "gain";
  Report.hrule 42;
  let gains =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let ctx = Cogent.Ctx.make ~arch ~precision:prec () in
        let f = (Tc_ttgt.Ttgt.run_ctx ctx problem).Tc_ttgt.Ttgt.gflops in
        let o =
          (Tc_ttgt.Ttgt.run_ctx ctx ~optimize:true problem).Tc_ttgt.Ttgt.gflops
        in
        (e, f, o))
      Tc_tccg.Suite.all
    |> List.map (fun (e, f, o) ->
           Printf.printf "%-8s %10.0f %10.0f %8.2fx\n" e.Tc_tccg.Suite.name f o
             (o /. f);
           (o, f))
  in
  print_newline ();
  Report.speedup_summary ~name:"optimized TTGT" ~base:"faithful TTGT" gains;
  summary_entry "ttgt" (Figures.finite "opt_vs_faithful" (geo gains))

let run () =
  [ selection (); correlation (); constraints (); ttgt_planner () ]
