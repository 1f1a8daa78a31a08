(* The cost-model accuracy target: prediction-vs-measurement calibration
   tables for the figure suites plus a serving replay, persisted both as
   BENCH_accuracy.json (the harness report) and as a cogent-audit/1
   ledger under audit-ledger/ (the CI drift gate's input:
   `cogent audit --ledger audit-ledger --diff bench/ACCURACY_BASELINE.json`).

   Every sample is a deterministic model evaluation — Algorithm-3
   transactions vs the interpreter-measured ground truth, simulator vs
   TTGT predicted times, dispatch regret at the request's own extents —
   so the ledger and the report are bit-identical at any COGENT_JOBS
   (samples are collected in suite order after the parallel sections). *)

module Benchrep = Tc_profile.Benchrep
module Audit = Tc_audit.Audit

let ledger_dir = "audit-ledger"

(* A fixed cross-section of the TCCG suite — the first two entries of
   every group — keeps the target a few seconds per (arch, precision)
   while still exercising each contraction family's calibration.  The
   full-suite picture comes from the serve bench replay in CI. *)
let tccg_subset =
  let two g =
    match Tc_tccg.Suite.by_group g with a :: b :: _ -> [ a; b ] | l -> l
  in
  List.concat_map two
    [
      Tc_tccg.Suite.Ml; Tc_tccg.Suite.Ao_mo; Tc_tccg.Suite.Ccsd;
      Tc_tccg.Suite.Ccsd_t_sd1; Tc_tccg.Suite.Ccsd_t_sd2;
    ]

(* One suite = one (arch, precision) sweep over a fixed entry list.  The
   plan searches and counter replays fan out on the pool (Audit.sample is
   a pure model evaluation); sample order is entry order regardless. *)
let tccg_suite ~suite ~arch ~precision entries =
  let ctx =
    Cogent.Ctx.make ~arch ~precision ~measure:Tc_sim.Simkernel.gflops ()
  in
  Tc_par.Pool.map
    (fun e ->
      let problem = Tc_tccg.Suite.problem e in
      match Cogent.Driver.run ctx problem with
      | Error _ -> None
      | Ok r ->
          Some
            (Audit.sample ~suite ~request:e.Tc_tccg.Suite.name
               ~key:(Cogent.Cache.key ctx problem)
               ~ctx ~degraded:r.Cogent.Driver.degraded r.Cogent.Driver.plan))
    entries
  |> List.filter_map Fun.id

(* The serving replay: pairs of requests that share a power-of-two size
   class, so the second request of each pair is served by the first's
   cached plan and dispatched on the representative's predictions — the
   only road to nonzero regret, which this suite therefore watches. *)
let serve_requests =
  let req id expr sizes =
    Ok
      {
        Tc_serve.Request.id;
        expr;
        sizes = Tc_expr.Sizes.of_list sizes;
        arch = Tc_gpu.Arch.v100;
        precision = Tc_gpu.Precision.FP64;
      }
  in
  [
    req 1 "abc-bda-dc" [ ('a', 312); ('b', 312); ('c', 312); ('d', 296) ];
    req 2 "abc-bda-dc" [ ('a', 300); ('b', 300); ('c', 300); ('d', 280) ];
    req 3 "abcd-ebcd-ae"
      [ ('a', 72); ('b', 72); ('c', 72); ('d', 72); ('e', 72) ];
    req 4 "abcd-ebcd-ae"
      [ ('a', 68); ('b', 68); ('c', 68); ('d', 68); ('e', 68) ];
    req 5 "abcd-feab-cdef"
      [ ('a', 40); ('b', 40); ('c', 40); ('d', 40); ('e', 40); ('f', 40) ];
    req 6 "abcd-feab-cdef"
      [ ('a', 36); ('b', 36); ('c', 36); ('d', 36); ('e', 36); ('f', 36) ];
  ]

let serve_suite () =
  let ctx = Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops () in
  let collector = Audit.collector () in
  let session =
    match Tc_serve.Serve.open_session ~audit:collector ctx with
    | Ok s -> s
    | Error m -> failwith ("accuracy bench: " ^ m)
  in
  let report = Tc_serve.Serve.run session serve_requests in
  List.iter (Printf.printf "  %s\n") report.Tc_serve.Serve.notices;
  Audit.samples collector

let run () =
  Report.section
    "Cost-model accuracy: Algorithm-3 predictions vs measured counters";
  let samples =
    List.concat
      [
        tccg_suite ~suite:"fig4" ~arch:Tc_gpu.Arch.p100
          ~precision:Tc_gpu.Precision.FP64 tccg_subset;
        tccg_suite ~suite:"fig5" ~arch:Tc_gpu.Arch.v100
          ~precision:Tc_gpu.Precision.FP64 tccg_subset;
        tccg_suite ~suite:"fig7" ~arch:Tc_gpu.Arch.v100
          ~precision:Tc_gpu.Precision.FP32
          (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd2);
      ]
  in
  (* The global audit instruments move strictly in sample order, after
     the parallel sections (the serve suite records its own inside
     Serve.run, likewise in request order). *)
  List.iter Audit.record_sample samples;
  let samples = samples @ serve_suite () in
  Tc_audit.Ledger.save ~dir:ledger_dir samples;
  Printf.printf "[ledger] wrote %s (%d samples)\n\n"
    (Tc_audit.Ledger.file ~dir:ledger_dir)
    (List.length samples);
  print_string (Audit.render samples);
  Audit.entries samples
