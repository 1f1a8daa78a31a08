(* Reproduction of every figure in the paper's evaluation (§V).  Each
   function prints the series the corresponding figure plots; see
   EXPERIMENTS.md for paper-vs-measured discussion.

   Besides printing, every target returns its data as
   [Tc_profile.Benchrep.entry] values; main.ml persists them as
   machine-readable BENCH_<target>.json reports for the regression gate. *)

open Tc_gpu
module Benchrep = Tc_profile.Benchrep

(* One plan cache for the whole harness: figures and prunestats revisit the
   same (contraction, device, precision) triples, which is exactly the
   workload the cache exists for — its hit/miss counters land in the
   metrics report main.ml prints. *)
let cache = Cogent.Cache.create ()

let cogent_result arch prec problem =
  let ctx =
    Cogent.Ctx.make ~arch ~precision:prec ~measure:Tc_sim.Simkernel.gflops ()
  in
  match Cogent.Cache.find_or_generate_ctx cache ctx problem with
  | Ok r -> r
  | Error e -> invalid_arg (Cogent.Driver.error_to_string e)

let cogent_gflops arch prec problem =
  Tc_sim.Simkernel.gflops (cogent_result arch prec problem).Cogent.Driver.plan

let nwchem_gflops arch prec problem =
  Tc_sim.Simkernel.gflops (Tc_nwchem.Nwgen.plan ~arch ~precision:prec problem)

let talsh_gflops arch prec problem =
  (Tc_ttgt.Ttgt.run_ctx (Cogent.Ctx.make ~arch ~precision:prec ()) problem)
    .Tc_ttgt.Ttgt.gflops

(* ---- report-building helpers ---- *)

let strat ?config name metrics = { Benchrep.strategy = name; metrics; config }

let bench_entry ~name ~expr arch prec strategies =
  {
    Benchrep.name;
    expr;
    arch = arch.Arch.name;
    precision = Precision.to_string prec;
    strategies;
  }

(* Only finite values may enter a report: [nan]/[inf] do not survive the
   JSON round-trip. *)
let finite name v = if Float.is_finite v then [ (name, v) ] else []

(* The full gated triple for a strategy we have a plan for: simulated
   GFLOPS, simulated DRAM transactions, and the Algorithm-3 model cost,
   plus the chosen configuration for human diffing. *)
let plan_strategy name plan =
  let sim = Tc_sim.Simkernel.run plan in
  strat name
    ~config:(Fmt.str "%a" Cogent.Mapping.pp plan.Cogent.Plan.mapping)
    (finite "gflops" sim.Tc_sim.Simkernel.gflops
    @ finite "transactions" sim.Tc_sim.Simkernel.transactions
    @ finite "cost" plan.Cogent.Plan.cost)

(* ---- Figs. 4 and 5: the 48 TCCG contractions, double precision ---- *)

let tccg_comparison arch =
  Report.section
    (Printf.sprintf
       "Fig. %s — TCCG benchmark on %s (double precision, GFLOPS)"
       (if arch.Arch.name = "P100" then "4" else "5")
       arch.Arch.name);
  Printf.printf "%-3s %-8s %-12s %-18s %9s %9s %9s\n" "#" "name" "group"
    "contraction" "COGENT" "NWChem" "TAL_SH";
  Report.hrule 78;
  (* Entries are independent, so they generate on the domain pool;
     printing happens afterwards, in suite order, so stdout is identical
     at any job count. *)
  let rows =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let cg_plan = (cogent_result arch Precision.FP64 problem).Cogent.Driver.plan in
        let cg = Tc_sim.Simkernel.gflops cg_plan in
        let nw_plan = Tc_nwchem.Nwgen.plan ~arch ~precision:Precision.FP64 problem in
        let nw = Tc_sim.Simkernel.gflops nw_plan in
        let ts = talsh_gflops arch Precision.FP64 problem in
        let entry =
          bench_entry ~name:e.Tc_tccg.Suite.name ~expr:e.Tc_tccg.Suite.expr
            arch Precision.FP64
            [
              plan_strategy "cogent" cg_plan;
              plan_strategy "nwchem" nw_plan;
              strat "talsh" (finite "gflops" ts);
            ]
        in
        (e, cg, nw, ts, entry))
      Tc_tccg.Suite.all
  in
  List.iter
    (fun (e, cg, nw, ts, _) ->
      Printf.printf "%-3d %-8s %-12s %-18s %9.0f %9.0f %9.0f\n"
        e.Tc_tccg.Suite.id e.Tc_tccg.Suite.name
        (Tc_tccg.Suite.group_to_string e.Tc_tccg.Suite.group)
        e.Tc_tccg.Suite.expr cg nw ts)
    rows;
  print_newline ();
  Report.speedup_summary ~name:"COGENT" ~base:"NWChem"
    (List.map (fun (_, cg, nw, _, _) -> (cg, nw)) rows);
  Report.speedup_summary ~name:"COGENT" ~base:"TAL_SH"
    (List.map (fun (_, cg, _, ts, _) -> (cg, ts)) rows);
  let ccsdt =
    List.filter
      (fun (e, _, _, _, _) ->
        match e.Tc_tccg.Suite.group with
        | Tc_tccg.Suite.Ccsd_t_sd1 | Tc_tccg.Suite.Ccsd_t_sd2 -> true
        | _ -> false)
      rows
  in
  let range f =
    let vals = List.map f ccsdt in
    (List.fold_left Float.min infinity vals, Report.maximum vals)
  in
  let cg_lo, cg_hi = range (fun (_, cg, _, _, _) -> cg) in
  let nw_lo, nw_hi = range (fun (_, _, nw, _, _) -> nw) in
  let ts_lo, ts_hi = range (fun (_, _, _, ts, _) -> ts) in
  Printf.printf
    "CCSD(T) range (GFLOPS): COGENT %.0f-%.0f | NWChem %.0f-%.0f | TAL_SH \
     %.0f-%.0f\n"
    cg_lo cg_hi nw_lo nw_hi ts_lo ts_hi;
  Printf.printf "\nGFLOPS bars (one representative per group):\n";
  let representative prefix =
    List.find_opt
      (fun (e, _, _, _, _) -> e.Tc_tccg.Suite.name = prefix)
      rows
  in
  Report.bar_chart ~series_names:[ "COGENT"; "NWChem"; "TAL_SH" ]
    (List.filter_map
       (fun name ->
         Option.map
           (fun (e, cg, nw, ts, _) -> (e.Tc_tccg.Suite.name, [ cg; nw; ts ]))
           (representative name))
       [ "ml_1"; "aomo_1"; "ccsd_1"; "ccsd_9"; "sd1_1"; "sd2_1" ]);
  List.map (fun (_, _, _, _, entry) -> entry) rows

let fig4 () = tccg_comparison Arch.p100
let fig5 () = tccg_comparison Arch.v100

(* ---- Figs. 6 and 7: SD2 contractions vs Tensor Comprehensions, SP ---- *)

let tc_comparison arch =
  Report.section
    (Printf.sprintf
       "Fig. %s — SD2 CCSD(T) contractions on %s vs Tensor Comprehensions \
        (single precision, GFLOPS)"
       (if arch.Arch.name = "P100" then "6" else "7")
       arch.Arch.name);
  Printf.printf "%-8s %-18s %9s %12s %12s\n" "name" "contraction" "COGENT"
    "TC (tuned)" "TC (untuned)";
  Report.hrule 78;
  (* Compute on the pool, print in suite order (see tccg_comparison). *)
  let rows =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let cg_plan =
          (cogent_result arch Precision.FP32 problem).Cogent.Driver.plan
        in
        let cg = Tc_sim.Simkernel.gflops cg_plan in
        let r = Tc_autotune.Tuner.tuned arch Precision.FP32 problem in
        let tuned = r.Tc_autotune.Genetic.best_gflops in
        let untuned =
          Tc_autotune.Tuner.untuned_gflops arch Precision.FP32 problem
        in
        let entry =
          bench_entry ~name:e.Tc_tccg.Suite.name ~expr:e.Tc_tccg.Suite.expr
            arch Precision.FP32
            [
              plan_strategy "cogent" cg_plan;
              strat "tc_tuned"
                (finite "gflops" tuned
                @ [
                    ( "evaluations",
                      float_of_int r.Tc_autotune.Genetic.evaluations );
                  ]);
              strat "tc_untuned" (finite "gflops" untuned);
            ]
        in
        (e, cg, tuned, untuned, entry))
      Tc_tccg.Suite.sd2
  in
  List.iter
    (fun (e, cg, tuned, untuned, _) ->
      Printf.printf "%-8s %-18s %9.0f %12.0f %12.2f\n" e.Tc_tccg.Suite.name
        e.Tc_tccg.Suite.expr cg tuned untuned)
    rows;
  print_newline ();
  Report.speedup_summary ~name:"COGENT" ~base:"TC-tuned"
    (List.map (fun (_, cg, tuned, _, _) -> (cg, tuned)) rows);
  List.map (fun (_, _, _, _, entry) -> entry) rows

let fig6 () = tc_comparison Arch.p100
let fig7 () = tc_comparison Arch.v100

(* ---- Fig. 8: GFLOPS vs number of autotuned code versions, SD2_1 ---- *)

let fig8 () =
  Report.section
    "Fig. 8 — GFLOPS vs autotuned code versions, SD2_1 (abcdef-gdab-efgc) on \
     V100, single precision";
  let e = Tc_tccg.Suite.sd2_1 in
  let problem = Tc_tccg.Suite.problem e in
  let arch = Arch.v100 and prec = Precision.FP32 in
  let cg_plan = (cogent_result arch prec problem).Cogent.Driver.plan in
  let cg = Tc_sim.Simkernel.gflops cg_plan in
  let untuned = Tc_autotune.Tuner.untuned_gflops arch prec problem in
  let r = Tc_autotune.Tuner.tuned arch prec problem in
  Printf.printf "COGENT (model-driven, no tuning): %.0f GFLOPS\n" cg;
  Printf.printf "TC without tuning:               %.2f GFLOPS\n" untuned;
  Printf.printf "TC best after %d versions:     %.0f GFLOPS\n"
    r.Tc_autotune.Genetic.evaluations r.Tc_autotune.Genetic.best_gflops;
  Printf.printf "Total TC tuning time:            %.0f seconds (simulated)\n\n"
    r.Tc_autotune.Genetic.tuning_time_s;
  Printf.printf "%-10s %12s %12s\n" "versions" "TC best" "TC current";
  Report.hrule 40;
  let stride = 100 in
  List.iter
    (fun (p : Tc_autotune.Genetic.trace_point) ->
      if
        p.Tc_autotune.Genetic.evaluations mod stride = 0
        || p.Tc_autotune.Genetic.evaluations = 1
      then
        Printf.printf "%-10d %12.1f %12.1f\n" p.Tc_autotune.Genetic.evaluations
          p.Tc_autotune.Genetic.best_gflops p.Tc_autotune.Genetic.current_gflops)
    r.Tc_autotune.Genetic.trace;
  [
    bench_entry ~name:e.Tc_tccg.Suite.name ~expr:e.Tc_tccg.Suite.expr arch prec
      [
        plan_strategy "cogent" cg_plan;
        strat "tc_untuned" (finite "gflops" untuned);
        strat "tc_tuned"
          (finite "gflops" r.Tc_autotune.Genetic.best_gflops
          @ [
              ("evaluations", float_of_int r.Tc_autotune.Genetic.evaluations);
            ]
          @ finite "tuning_time_s" r.Tc_autotune.Genetic.tuning_time_s);
      ];
  ]

(* ---- Schema study: classic vs software-pipelined on A100, fp16 ---- *)

let schemas () =
  Report.section
    "Schema study — TCCG benchmark on A100 (half precision, GFLOPS): classic \
     synchronous ladder vs software-pipelined (cp.async / MMA)";
  let arch = Arch.a100 and prec = Precision.FP16 in
  Printf.printf "%-3s %-8s %-18s %9s %9s %8s  %s\n" "#" "name" "contraction"
    "classic" "pipelined" "speedup" "chosen schema";
  Report.hrule 78;
  (* Compute on the pool, print in suite order (see tccg_comparison). *)
  let rows =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let plan = (cogent_result arch prec problem).Cogent.Driver.plan in
        let chosen = plan.Cogent.Plan.schema in
        let race = Tc_sim.Simkernel.race plan in
        let gflops (r : Tc_sim.Simkernel.result) = r.Tc_sim.Simkernel.gflops in
        let classic = gflops race.Tc_sim.Simkernel.classic in
        let piped =
          Option.map
            (fun (sc, r) -> (sc, gflops r))
            race.Tc_sim.Simkernel.pipelined
        in
        let entry =
          bench_entry ~name:e.Tc_tccg.Suite.name ~expr:e.Tc_tccg.Suite.expr
            arch prec
            ((match Cogent.Plan.with_schema Schema.Classic plan with
             | Ok classic -> [ plan_strategy "classic" classic ]
             | Error _ -> [])
            @ (match piped with
              | None -> []
              | Some (sc, g) ->
                  [
                    strat "pipelined" ~config:(Schema.to_string sc)
                      (finite "gflops" g @ finite "speedup" (g /. classic));
                  ])
            @ [
                strat "chosen" ~config:(Schema.to_string chosen)
                  (finite "gflops"
                     (gflops (Tc_sim.Simkernel.lane race chosen)));
              ])
        in
        (e, chosen, classic, piped, entry))
      Tc_tccg.Suite.all
  in
  List.iter
    (fun (e, chosen, classic, piped, _) ->
      let pg, speedup =
        match piped with
        | Some (_, g) -> (Printf.sprintf "%9.0f" g, Printf.sprintf "%7.2fx" (g /. classic))
        | None -> ((Printf.sprintf "%9s" "-"), Printf.sprintf "%8s" "-")
      in
      Printf.printf "%-3d %-8s %-18s %9.0f %s %s  %s\n" e.Tc_tccg.Suite.id
        e.Tc_tccg.Suite.name e.Tc_tccg.Suite.expr classic pg speedup
        (Schema.to_string chosen))
    rows;
  print_newline ();
  let chosen_pipelined =
    List.length
      (List.filter (fun (_, sc, _, _, _) -> Schema.pipelined sc) rows)
  in
  Report.speedup_summary ~name:"pipelined" ~base:"classic"
    (List.filter_map
       (fun (_, _, classic, piped, _) ->
         Option.map (fun (_, g) -> (g, classic)) piped)
       rows);
  Printf.printf
    "pipelined schema chosen on %d/%d entries (classic wins ties and \
     memory-bound contractions)\n"
    chosen_pipelined (List.length rows);
  List.map (fun (_, _, _, _, entry) -> entry) rows

(* ---- §IV-A3: pruning statistics ---- *)

let prunestats () =
  Report.section
    "Search-space pruning across the TCCG suite (§IV-A: ~97% pruned)";
  Printf.printf "%-8s %-18s %14s %10s %8s %9s %12s %6s %6s %7s\n" "name"
    "contraction" "naive space" "enumerated" "kept" "pruned%" "vs naive" "hw"
    "perf" "bound";
  Report.hrule 108;
  (* Compute on the pool, print in suite order (see tccg_comparison). *)
  let rows =
    Tc_par.Pool.map
      (fun e ->
        let problem = Tc_tccg.Suite.problem e in
        let r = cogent_result Arch.v100 Precision.FP64 problem in
        let s = r.Cogent.Driver.prune_stats in
        let pruned_pct =
          100.0
          *. float_of_int (s.Cogent.Prune.enumerated - s.Cogent.Prune.kept)
          /. float_of_int (max 1 s.Cogent.Prune.enumerated)
        in
        let vs_naive =
          100.0
          *. (1.0 -. (float_of_int s.Cogent.Prune.kept /. r.Cogent.Driver.naive_space))
        in
        let entry =
          bench_entry ~name:e.Tc_tccg.Suite.name ~expr:e.Tc_tccg.Suite.expr
            Arch.v100 Precision.FP64
            [
              strat "search"
                (finite "naive_space" r.Cogent.Driver.naive_space
                @ [
                    ("enumerated", float_of_int s.Cogent.Prune.enumerated);
                    ("kept", float_of_int s.Cogent.Prune.kept);
                    ( "hardware_rejects",
                      float_of_int s.Cogent.Prune.hardware_rejects );
                    ( "performance_rejects",
                      float_of_int s.Cogent.Prune.performance_rejects );
                    ( "bound_aborted",
                      float_of_int r.Cogent.Driver.bound_aborted );
                  ]);
            ]
        in
        (e, r, s, pruned_pct, vs_naive, entry))
      Tc_tccg.Suite.all
  in
  List.iter
    (fun (e, r, s, pruned_pct, vs_naive, _) ->
      Printf.printf "%-8s %-18s %14.3e %10d %8d %8.1f%% %11.4f%% %6d %6d %7d\n"
        e.Tc_tccg.Suite.name e.Tc_tccg.Suite.expr r.Cogent.Driver.naive_space
        s.Cogent.Prune.enumerated s.Cogent.Prune.kept pruned_pct vs_naive
        s.Cogent.Prune.hardware_rejects s.Cogent.Prune.performance_rejects
        r.Cogent.Driver.bound_aborted)
    rows;
  let stats = List.rev_map (fun (_, _, s, _, _, _) -> s) rows in
  let entries = List.map (fun (_, _, _, _, _, entry) -> entry) rows in
  let fractions =
    List.map (fun (_, _, _, pruned_pct, vs_naive, _) -> (pruned_pct, vs_naive)) rows
  in
  let mean f =
    List.fold_left (fun acc x -> acc +. f x) 0.0 fractions
    /. float_of_int (List.length fractions)
  in
  Printf.printf
    "\nmean pruned fraction: %.1f%% of the enumerated set; %.4f%% of the\n\
     naive space (Algorithm 2's greedy structured enumeration already\n\
     discards most of the naive space before rule-based pruning runs)\n"
    (mean fst) (mean snd);
  (* Itemized audit: which rule did the pruning, summed across the suite. *)
  Printf.printf "\nrejections by rule (suite total):\n";
  let total_per_rule r =
    List.fold_left
      (fun acc s -> acc + Cogent.Prune.pruned_count s r)
      0 stats
  in
  let grand =
    List.fold_left (fun acc r -> acc + total_per_rule r) 0
      Cogent.Prune.all_reasons
  in
  List.iter
    (fun r ->
      let n = total_per_rule r in
      if n > 0 then
        Printf.printf "  [%-14s] %-26s %8d  (%.1f%%)\n"
          (Cogent.Prune.klass_to_string (Cogent.Prune.klass_of_reason r))
          (Cogent.Prune.reason_to_string r)
          n
          (100.0 *. float_of_int n /. float_of_int (max 1 grand)))
    Cogent.Prune.all_reasons;
  let relaxed_entries =
    List.length (List.filter (fun s -> s.Cogent.Prune.relaxed) stats)
  in
  Printf.printf
    "  %d rejections total; %d/%d entries needed performance-constraint \
     relaxation\n"
    grand relaxed_entries (List.length stats);
  (* Bound aborts are cost-side, not rule prunes: survivors whose cost
     evaluation the branch-and-bound pipeline cut short because they
     provably rank below the retained top-K. *)
  let bound_total =
    List.fold_left
      (fun acc (_, r, _, _, _, _) -> acc + r.Cogent.Driver.bound_aborted)
      0 rows
  in
  Printf.printf
    "  %d survivors bound-aborted by the streaming cost evaluation (suite \
     total)\n"
    bound_total;
  entries
