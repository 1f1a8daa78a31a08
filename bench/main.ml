(* Benchmark harness entry point.

   With no argument, runs the code-generation micro-benchmarks, then
   regenerates every figure of the paper plus the pruning statistics.
   Individual targets:

     dune exec bench/main.exe -- fig4|fig5|fig6|fig7|fig8|prunestats|ablation|serve|accuracy|micro

   Each target also writes a machine-readable BENCH_<target>.json report
   (schema cogent-bench/1, see Tc_profile.Benchrep).  Two extra
   subcommands drive the regression gate:

     dune exec bench/main.exe -- baseline OUT.json   merge reports into a baseline
     dune exec bench/main.exe -- diff BASELINE.json  compare a run against it
                                                     (exit 1 on regression)
     dune exec bench/main.exe -- equal A.json B.json exit 1 unless the two
                                                     reports are identical
                                                     modulo wall_s/jobs

   Worker-domain count comes from COGENT_JOBS (see Tc_par.Pool); results
   are bit-identical at any job count — only wall_s and the recorded
   jobs field vary. *)

let targets =
  [
    ("fig4", Figures.fig4);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("schemas", Figures.schemas);
    ("prunestats", Figures.prunestats);
    ("ablation", Ablation.run);
    ("serve", Serve_bench.run);
    ("accuracy", Accuracy.run);
    ("micro", Micro.run);
  ]

(* Each target runs under a span so the harness can report where the time
   went; the pipeline's own counters (plan-cache hits, prune rejections,
   generations) accumulate in [Tc_obs.Metrics.global] as a side effect.
   The entries the target returns are persisted as its BENCH report. *)
let timed name f =
  let entries = ref [] in
  let t0 = Tc_obs.Clock.now () in
  Tc_obs.Trace.with_span ~cat:"bench" name (fun () -> entries := f ());
  Tc_obs.Metrics.incr (Tc_obs.Metrics.counter "bench.targets_run");
  let doc =
    {
      Tc_profile.Benchrep.target = name;
      wall_s = Tc_obs.Clock.now () -. t0;
      jobs = Tc_par.Pool.default_jobs ();
      entries = !entries;
    }
  in
  let path = Tc_profile.Benchrep.filename name in
  Tc_profile.Benchrep.write ~path doc;
  Printf.printf "\n[report] wrote %s (%d entries)\n" path
    (List.length !entries)

let harness_report trace =
  Report.section "Harness report (wall time per target, pipeline metrics)";
  (* Filter by the harness's own category, not depth: pool workers record
     their spans at domain-local depth 0 too. *)
  List.iter
    (fun ev ->
      match ev with
      | Tc_obs.Trace.Span { name; dur_us; cat = "bench"; _ } ->
          Printf.printf "  %-12s %8.2f s\n" name (dur_us /. 1e6)
      | _ -> ())
    (Tc_obs.Trace.events trace);
  print_newline ();
  Format.printf "%a@." Tc_obs.Metrics.pp
    (Tc_obs.Metrics.snapshot Tc_obs.Metrics.global)

let run_targets names =
  let trace = Tc_obs.Trace.make () in
  Tc_obs.Trace.install trace;
  (match names with
  | [] ->
      (* micro times host code, so it runs first, on a small heap: after
         the figures ~90 MB stay live and its stages read 5x slower than
         in a standalone [micro] run. *)
      let micro, figures = List.partition (fun (n, _) -> n = "micro") targets in
      List.iter (fun (name, f) -> timed name f) (micro @ figures)
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> timed name f
          | None ->
              Printf.eprintf "unknown target %S; available: %s\n" name
                (String.concat ", " (List.map fst targets));
              exit 1)
        names);
  Tc_obs.Trace.uninstall ();
  harness_report trace

(* Determinism gate: two reports for the same target, produced at
   different job counts, must agree on everything but wall time. *)
let equal_reports a b =
  let load path =
    match Tc_profile.Benchrep.read ~path with
    | Ok doc -> doc
    | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 2
  in
  let da = load a and db = load b in
  if Tc_profile.Benchrep.equal_modulo_wall da db then
    Printf.printf "%s == %s (modulo wall_s/jobs)\n" a b
  else begin
    Printf.eprintf "%s and %s differ beyond wall_s/jobs\n" a b;
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "diff"; baseline ] -> Gate.diff baseline
  | [ "baseline"; out ] -> Gate.baseline ~targets:(List.map fst targets) out
  | [ "equal"; a; b ] -> equal_reports a b
  | [ cmd ] when cmd = "diff" || cmd = "baseline" ->
      Printf.eprintf "usage: bench %s FILE.json\n" cmd;
      exit 2
  | "equal" :: _ ->
      Printf.eprintf "usage: bench equal A.json B.json\n";
      exit 2
  | names -> run_targets names
