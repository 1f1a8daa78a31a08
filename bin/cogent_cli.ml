(* cogent — command-line front end of the code generator.

   Subcommands:
     gen      emit CUDA, OpenCL or host C for a contraction at a
              representative size (--dialect cuda|opencl|c; --standalone
              adds a main() for cuda and c)
     plan     show the top-ranked configurations with model cost and
              simulated performance
     explain  itemized cost-model breakdown: prune audit, per-tensor DRAM
              charges, occupancy limiter, simulator roofline
     profile  simulated-hardware profiler: interpreter-measured counters
              cross-validated against simulator and cost-model predictions
              (--json for the machine-readable report, --trace FILE for a
              Chrome-trace timeline of the simulated execution)
     bench    compare COGENT / NWChem-style / TAL_SH-style strategies on one
              contraction or a TCCG suite entry (--json FILE writes the
              cogent-bench/1 record the bench harness also emits)
     serve    run a JSONL workload of contraction requests through the
              batched serving engine (dedup, parallel plan search, model
              dispatch to the COGENT kernel or the TTGT pipeline, optional
              on-disk plan store for warm restarts; --audit-ledger DIR also
              records one cost-model accuracy sample per request)
     audit    aggregate a cogent-audit/1 ledger into the calibration
              report: model-error quantiles, dispatch mix, regret account
              (--diff BASELINE.json is the CI drift gate: exit 1 when
              calibration drifts past the per-metric tolerances)
     suite    list the TCCG benchmark entries

   The generation subcommands share one configuration surface (a
   Cogent.Ctx built from --arch and --precision).  Every
   subcommand accepts --metrics FILE to write the final metrics snapshot
   in Prometheus text format and --jobs N to set the worker-domain count
   for the parallel sections (overrides COGENT_JOBS; 1 disables
   parallelism); all but profile, audit and suite also accept --trace
   FILE to record a pipeline trace as Chrome trace_event JSON (load in
   chrome://tracing or Perfetto) — profile's --trace is the simulated
   execution timeline instead.  Results are bit-identical at any job
   count.

   Examples:
     cogent gen  -e abcd-aebf-dfce -s a=48,b=48,c=48,d=48,e=32,f=32
     cogent plan -e "C[a,b] = A[a,k] * B[k,b]" -s a=1024,b=1024,k=512 -n 10
     cogent explain "C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]" -s a=48,b=48,c=48,d=48,e=32,f=32
     cogent bench --entry sd2_1 --arch p100 --trace sd2_1.trace.json
     cogent serve --requests examples/serve_requests.jsonl --store /tmp/plans --json *)

open Cmdliner
open Tc_gpu
open Tc_expr

let version = "1.0.0"

(* ---- shared arguments ---- *)

let expr_arg =
  let doc =
    "The contraction, in TCCG form (abcd-aebf-dfce) or Einstein form \
     (C[a,b]=A[a,k]*B[k,b])."
  in
  Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"EXPR" ~doc)

(* [explain] and [profile] also take the contraction as their first
   positional argument; the positional form wins over --expr. *)
let pos_or_expr_arg =
  let pos =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPR"
           ~doc:"The contraction (alternative to --expr).")
  in
  Term.(const (fun pos expr -> match pos with Some _ -> pos | None -> expr)
        $ pos $ expr_arg)

let sizes_arg =
  let doc = "Representative extents, e.g. a=48,b=48,e=32." in
  Arg.(value & opt (some string) None & info [ "s"; "sizes" ] ~docv:"SIZES" ~doc)

let entry_arg =
  let doc = "A TCCG suite entry name (see the suite subcommand), e.g. sd2_1." in
  Arg.(value & opt (some string) None & info [ "entry" ] ~docv:"NAME" ~doc)

let arch_arg =
  let parse s =
    match Arch.by_name s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown device %S (p100|v100|a100|h100)" s))
  in
  let print fmt (a : Arch.t) = Format.pp_print_string fmt a.Arch.name in
  let arch_conv = Arg.conv (parse, print) in
  Arg.(value & opt arch_conv Arch.v100 & info [ "arch" ] ~docv:"DEVICE"
         ~doc:"Target device: p100, v100, a100 or h100.")

let precision_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Precision.of_string s) in
  let prec_conv = Arg.conv (parse, fun fmt p -> Precision.pp fmt p) in
  Arg.(value & opt prec_conv Precision.FP64 & info [ "precision" ] ~docv:"PREC"
         ~doc:"Floating-point precision: fp16, tf32, fp32 or fp64.")

let schema_arg =
  let parse s =
    match Schema.of_string s with
    | Some sc -> Ok sc
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown schema %S (classic|pipelined|pipelined-mma)" s))
  in
  let schema_conv = Arg.conv (parse, Schema.pp) in
  Arg.(value & opt (some schema_conv) None & info [ "schema" ] ~docv:"SCHEMA"
         ~doc:"Kernel schema: classic (the synchronous ladder of Algorithm \
               1), pipelined (double-buffered SMEM with async-copy \
               prefetch), or pipelined-mma (pipelined with tensor-core \
               compute; fp16/tf32 only).  By default the driver races every \
               schema feasible on the target device and keeps the predicted \
               fastest.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the generated source to $(docv) instead of stdout.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a pipeline trace and write it to $(docv) as Chrome \
               trace_event JSON (chrome://tracing, Perfetto).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the final metrics snapshot (counters, gauges, latency \
               histograms) to $(docv) in Prometheus text exposition format. \
               Instruments whose names contain \"wall\" carry wall-clock \
               values; everything else is deterministic and byte-identical \
               at any job count.")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the parallel sections (ranking, measured \
               refinement, sweeps).  Overrides $(b,COGENT_JOBS); defaults \
               to the machine's core count minus one; 1 disables \
               parallelism.  Results are bit-identical at any job count.")

(* The shared front door: every generation subcommand folds its --arch
   and --precision into one [Cogent.Ctx.t] (the simulator is the measure —
   this repo's stand-in for timed runs on real hardware). *)
let mk_ctx ?schema (arch, precision) =
  Cogent.Ctx.make ~arch ~precision ?schema ~measure:Tc_sim.Simkernel.gflops ()

let resolve_problem expr sizes entry =
  match (entry, expr, sizes) with
  | Some name, None, None -> (
      match Tc_tccg.Suite.find name with
      | Some e -> Ok (Tc_tccg.Suite.problem e)
      | None -> Error (Printf.sprintf "no TCCG entry named %S" name))
  | None, Some e, Some s -> (
      match Sizes.parse s with
      | Error m -> Error m
      | Ok sizes -> (
          match Parser.parse e with
          | Error pe -> Error (Format.asprintf "%a" Parser.pp_error pe)
          | Ok ast -> Problem.make ast sizes))
  | None, Some _, None -> Error "missing --sizes"
  | _ -> Error "give either --entry NAME, or --expr with --sizes"

let write_file path s =
  Out_channel.with_open_text path (fun oc -> output_string oc s)

(* Exit codes: 0 ok, 1 runtime error, 2 usage error.  A usage error is a
   flag, entry, expression or problem the command cannot act on — an
   infeasible forced --schema included, and cmdliner's own parse errors
   (see [main]); a runtime error is a file that cannot be read or
   written. *)
type failure = Usage | Runtime

let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"on a runtime error (a file that cannot be read or \
                   written), or a regression under audit --diff.";
      info 2 ~doc:"on a usage error: a flag, entry, expression or problem \
                   the command cannot act on.";
      info 125 ~doc:"on unexpected internal errors (bugs).";
    ]

let or_die failure = function
  | Ok v -> v
  | Error m ->
      prerr_endline ("cogent: " ^ m);
      exit (match failure with Usage -> 2 | Runtime -> 1)

(* Plan [problem] on the device; a generation error is a usage error. *)
let plan_or_die ?schema ?topk device problem =
  Cogent.Driver.run (mk_ctx ?schema device) ?topk problem
  |> Result.map_error Cogent.Driver.error_to_string |> or_die Usage

(* Run the body of a subcommand with error hardening (failures land on
   stderr with a nonzero exit, never a backtrace), the requested
   worker-domain count, optional tracing, and an optional Prometheus
   metrics file.  Both exports run in [Fun.protect] finalizers so a
   failing body still leaves its trace and metrics on disk. *)
let harness ?jobs ?metrics trace f =
  Option.iter Tc_par.Pool.set_default_jobs jobs;
  let traced () =
    match trace with
    | None -> f ()
    | Some path ->
        let t = Tc_obs.Trace.make () in
        Fun.protect
          ~finally:(fun () ->
            Tc_obs.Export.write_chrome ~path (Tc_obs.Trace.events t);
            Printf.eprintf "cogent: wrote trace to %s\n%!" path)
          (fun () -> Tc_obs.Trace.with_installed t f)
  in
  let measured () =
    match metrics with
    | None -> traced ()
    | Some path ->
        Fun.protect
          ~finally:(fun () ->
            write_file path
              (Tc_obs.Metrics.to_prometheus
                 (Tc_obs.Metrics.snapshot Tc_obs.Metrics.global));
            Printf.eprintf "cogent: wrote metrics to %s\n%!" path)
          traced
  in
  let message = function
    | Sys_error m | Invalid_argument m | Failure m -> Some m
    | _ -> None
  in
  match measured () with
  | v -> v
  | exception e -> (
      (* A failing trace/metrics write surfaces wrapped by [Fun.protect]. *)
      let rec unwrap = function Fun.Finally_raised e -> unwrap e | e -> e in
      match message (unwrap e) with
      | Some m -> or_die Runtime (Error m)
      | None -> raise (unwrap e))

(* ---- shared terms ---- *)

(* The contraction a subcommand works on: [--entry NAME], or an expression
   (from [expr]) with [--sizes].  [resolve] runs inside the harness, so a
   bad problem is reported after tracing starts. *)
type problem = { entry : string option; resolve : unit -> Problem.t }

let problem_term expr =
  Term.(
    const (fun expr sizes entry ->
        {
          entry;
          resolve =
            (fun () -> or_die Usage (resolve_problem expr sizes entry));
        })
    $ expr $ sizes_arg $ entry_arg)

let device_term =
  Term.(const (fun arch precision -> (arch, precision)) $ arch_arg
        $ precision_arg)

(* --metrics and --jobs, plus the pipeline --trace when [trace]: the
   {!harness} a subcommand body runs under. *)
let harness_term ~trace =
  Term.(const (fun trace metrics jobs -> harness ?jobs ?metrics trace)
        $ (if trace then trace_arg else const None) $ metrics_arg $ jobs_arg)

(* ---- gen ---- *)

let gen_cmd =
  let run harness problem device schema output standalone dialect =
    harness @@ fun () ->
    let problem = problem.resolve () in
    let r = plan_or_die ?schema device problem in
    if standalone && dialect = Cogent.Codegen.Opencl then
      or_die Usage
        (Error "--standalone is not available for the OpenCL dialect");
    let src =
      Cogent.Codegen.emit ~dialect ~standalone r.Cogent.Driver.plan
    in
    match output with
    | None -> print_string src
    | Some file ->
        write_file file src;
        Printf.printf "wrote %s (%d bytes)\n" file (String.length src)
  in
  let standalone =
    Arg.(value & flag & info [ "standalone" ]
           ~doc:"Emit a self-contained translation unit with a main(): a \
                 benchmarking .cu for the CUDA dialect, a runnable .c (prints \
                 the output tensor) for the C dialect.")
  in
  let dialect =
    let parse = function
      | "cuda" -> Ok Cogent.Codegen.Cuda
      | "opencl" | "cl" -> Ok Cogent.Codegen.Opencl
      | "c" | "c-host" -> Ok Cogent.Codegen.C_host
      | s -> Error (`Msg (Printf.sprintf "unknown dialect %S (cuda|opencl|c)" s))
    in
    let print fmt d =
      Format.pp_print_string fmt (Cogent.Codegen.dialect_name d)
    in
    Arg.(value & opt (conv (parse, print)) Cogent.Codegen.Cuda
         & info [ "dialect" ] ~docv:"DIALECT"
             ~doc:"Output dialect: cuda, opencl, or c (a host-C translation \
                   unit that emulates the thread grid with loops and runs on \
                   the CPU).")
  in
  Cmd.v
    (Cmd.info "gen" ~version ~exits
       ~doc:"Generate CUDA, OpenCL or host-C for a tensor contraction")
    Term.(const run $ harness_term ~trace:true $ problem_term expr_arg
          $ device_term $ schema_arg $ output_arg $ standalone
          $ dialect)

(* ---- plan ---- *)

let plan_cmd =
  let run harness problem ((arch, precision) as device) schema top =
    harness @@ fun () ->
    let problem = problem.resolve () in
    let r = plan_or_die ?schema ~topk:top device problem in
    let s = r.Cogent.Driver.prune_stats in
    Format.printf "problem:     %a@." Problem.pp problem;
    Format.printf
      "search:      naive space %.3e, enumerated %d, kept %d, bound-aborted \
       %d@."
      (Cogent.Enumerate.naive_space_size problem) s.Cogent.Prune.enumerated s.Cogent.Prune.kept
      r.Cogent.Driver.bound_aborted;
    let plan = r.Cogent.Driver.plan in
    (* Predicted overlap saving: the schema race's lane for the selected
       schema over its classic lane (or its best pipelined lane when
       classic was selected but a pipelined schema was feasible). *)
    let race = Tc_sim.Simkernel.race plan in
    let over_classic (r : Tc_sim.Simkernel.result) =
      r.Tc_sim.Simkernel.gflops
      /. race.Tc_sim.Simkernel.classic.Tc_sim.Simkernel.gflops
    in
    (match (plan.Cogent.Plan.schema, race.Tc_sim.Simkernel.pipelined) with
    | Schema.Classic, None -> Format.printf "schema:      classic@."
    | Schema.Classic, Some (_, p) ->
        Format.printf
          "schema:      classic (pipelined predicted %.2fx, not taken)@."
          (over_classic p)
    | sc, _ ->
        Format.printf
          "schema:      %s (predicted %.2fx over classic staging)@."
          (Schema.to_string sc)
          (over_classic (Tc_sim.Simkernel.lane race sc)));
    Format.printf "selected:    %a@.@." Cogent.Plan.pp plan;
    Format.printf "top %d configurations by model cost:@." top;
    List.iteri
      (fun k (m, cost) ->
        if k < top then
          match Cogent.Plan.make ~problem ~mapping:m ~arch ~precision with
          | Ok plan ->
              Format.printf "  #%-2d cost %.3e  sim %7.0f GFLOPS  %a@." (k + 1)
                cost (Tc_sim.Simkernel.gflops plan) Cogent.Mapping.pp m
          | Error e -> Format.printf "  #%-2d %s@." (k + 1) e)
      r.Cogent.Driver.ranked
  in
  let top =
    Arg.(value & opt int 5 & info [ "n"; "top" ] ~docv:"N"
           ~doc:"How many configurations to display.")
  in
  Cmd.v
    (Cmd.info "plan" ~version ~exits
       ~doc:"Inspect the configuration search for a contraction")
    Term.(const run $ harness_term ~trace:true $ problem_term expr_arg
          $ device_term $ schema_arg $ top)

(* ---- explain ---- *)

let explain_cmd =
  let run harness problem device top json =
    harness @@ fun () ->
    let problem = problem.resolve () in
    let e = Tc_explain.Explain.analyze (mk_ctx device) ~top problem in
    (match e with
    | Error (Cogent.Driver.No_viable_mapping s) ->
        (* the prune audit: which rule rejected what *)
        Format.eprintf "%a@." Cogent.Prune.pp_stats s
    | _ -> ());
    let e =
      or_die Usage (Result.map_error Cogent.Driver.error_to_string e)
    in
    if json then
      print_endline (Tc_obs.Json.to_string_pretty (Tc_explain.Explain.to_json e))
    else print_string (Tc_explain.Explain.render e)
  in
  let top =
    Arg.(value & opt int 3 & info [ "n"; "top" ] ~docv:"N"
           ~doc:"How many candidates to break down.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the breakdown as JSON instead of text.")
  in
  Cmd.v
    (Cmd.info "explain" ~version ~exits
       ~doc:"Explain the cost model's choice: prune audit, per-tensor DRAM \
             charges, occupancy limiter, simulator roofline")
    Term.(const run $ harness_term ~trace:true $ problem_term pos_or_expr_arg
          $ device_term $ top $ json)

(* ---- profile ---- *)

let profile_cmd =
  let run harness problem device json trace =
    harness @@ fun () ->
    let problem = problem.resolve () in
    let r = plan_or_die device problem in
    let prof = Tc_profile.Profile.profile r.Cogent.Driver.plan in
    (match trace with
    | None -> ()
    | Some path ->
        write_file path (Tc_profile.Profile.timeline_chrome prof);
        Printf.eprintf "cogent: wrote simulated timeline to %s\n%!" path);
    if json then
      print_endline
        (Tc_obs.Json.to_string_pretty (Tc_profile.Profile.to_json prof))
    else print_string (Tc_profile.Profile.render prof)
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the profile report as JSON instead of text.")
  in
  let timeline =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a timeline of the simulated execution (per-SM block \
                 waves, GMEM->SMEM staging vs compute phases) to $(docv) as \
                 Chrome trace_event JSON (chrome://tracing, Perfetto).")
  in
  Cmd.v
    (Cmd.info "profile" ~version ~exits
       ~doc:"Profile the selected plan on the simulated hardware: \
             interpreter-measured counters cross-validated against the \
             simulator's exact transaction model and the Algorithm-3 cost \
             estimate")
    Term.(const run $ harness_term ~trace:false $ problem_term pos_or_expr_arg
          $ device_term $ json $ timeline)

(* ---- bench ---- *)

let bench_cmd =
  let run harness problem ((arch, precision) as device) json_file =
    harness @@ fun () ->
    let t0 = Tc_obs.Clock.now () in
    let entry = problem.entry in
    let problem = problem.resolve () in
    let cg_plan = (plan_or_die device problem).Cogent.Driver.plan in
    let cg_sim = Tc_sim.Simkernel.run cg_plan in
    let nw_plan = Tc_nwchem.Nwgen.plan ~arch ~precision problem in
    let nw_sim = Tc_sim.Simkernel.run nw_plan in
    let ts = Tc_ttgt.Ttgt.run_ctx (mk_ctx device) problem in
    let cg = cg_sim.Tc_sim.Simkernel.gflops
    and nw = nw_sim.Tc_sim.Simkernel.gflops
    and tsg = ts.Tc_ttgt.Ttgt.gflops in
    Format.printf "%a on %s (%a)@." Problem.pp problem arch.Arch.name
      Precision.pp precision;
    Format.printf "  COGENT        %8.0f GFLOPS@." cg;
    Format.printf "  NWChem-style  %8.0f GFLOPS  (%.2fx)@." nw (cg /. nw);
    Format.printf "  TAL_SH-style  %8.0f GFLOPS  (%.2fx)@." tsg (cg /. tsg);
    match json_file with
    | None -> ()
    | Some path ->
        let strategy name (sim : Tc_sim.Simkernel.result) plan =
          {
            Tc_profile.Benchrep.strategy = name;
            metrics =
              [
                ("gflops", sim.Tc_sim.Simkernel.gflops);
                ("transactions", sim.Tc_sim.Simkernel.transactions);
                ("cost", plan.Cogent.Plan.cost);
              ];
            config =
              Some
                (Format.asprintf "%a" Cogent.Mapping.pp
                   plan.Cogent.Plan.mapping);
          }
        in
        let expr =
          Format.asprintf "%a" Tc_expr.Ast.pp
            (Problem.info problem).Classify.original
        in
        let doc =
          {
            Tc_profile.Benchrep.target = "bench";
            wall_s = Tc_obs.Clock.now () -. t0;
            jobs = Tc_par.Pool.default_jobs ();
            entries =
              [
                {
                  Tc_profile.Benchrep.name = Option.value entry ~default:expr;
                  expr;
                  arch = arch.Arch.name;
                  precision = Precision.to_string precision;
                  strategies =
                    [
                      strategy "cogent" cg_sim cg_plan;
                      strategy "nwchem" nw_sim nw_plan;
                      {
                        Tc_profile.Benchrep.strategy = "talsh";
                        metrics = [ ("gflops", tsg) ];
                        config = None;
                      };
                    ];
                };
              ];
          }
        in
        Tc_profile.Benchrep.write ~path doc;
        Printf.printf "wrote %s\n" path
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the comparison as a cogent-bench/1 JSON record \
                 to $(docv) — the same per-strategy schema the bench \
                 harness's BENCH_<target>.json files use.")
  in
  Cmd.v
    (Cmd.info "bench" ~version ~exits
       ~doc:"Compare execution strategies on one contraction")
    Term.(const run $ harness_term ~trace:true $ problem_term expr_arg
          $ device_term $ json_file)

(* ---- serve ---- *)

let serve_cmd =
  let run harness requests store device json flight_dump audit_ledger =
    harness @@ fun () ->
    let t0 = Tc_obs.Clock.now () in
    let ctx = mk_ctx device in
    let requests =
      match requests with
      | Some f -> f
      | None -> or_die Usage (Error "missing --requests FILE")
    in
    let items =
      or_die Runtime (Tc_serve.Request.load_file ~default:ctx requests)
    in
    let audit = Option.map (fun _ -> Tc_audit.Audit.collector ()) audit_ledger in
    let session =
      or_die Runtime (Tc_serve.Serve.open_session ?store ?audit ctx)
    in
    let report =
      Fun.protect
        ~finally:(fun () -> Tc_serve.Serve.close_session session)
        (fun () -> Tc_serve.Serve.run session items)
    in
    (match (audit_ledger, audit) with
    | Some dir, Some c ->
        let samples = Tc_audit.Audit.samples c in
        Tc_audit.Ledger.save ~dir samples;
        Printf.eprintf "cogent: wrote audit ledger (%d samples) to %s\n%!"
          (List.length samples)
          (Tc_audit.Ledger.file ~dir)
    | _ -> ());
    if json then
      print_endline
        (Tc_obs.Json.to_string_pretty
           (Tc_profile.Benchrep.to_json
              (Tc_serve.Serve.report_doc
                 ~wall_s:(Tc_obs.Clock.now () -. t0)
                 report)))
    else
      List.iter
        (fun (r : Tc_serve.Serve.response) ->
          match r.Tc_serve.Serve.result with
          | Ok o ->
              Format.printf "req-%03d  %-24s -> %-6s  %10.3f ms  %8.0f GFLOPS%s@."
                r.Tc_serve.Serve.id r.Tc_serve.Serve.expr
                (Tc_audit.Audit.engine_name o.Tc_serve.Serve.engine)
                (o.Tc_serve.Serve.predicted_s *. 1e3)
                o.Tc_serve.Serve.gflops
                (if o.Tc_serve.Serve.cached then "  [cached]" else "")
          | Error e ->
              Format.printf "req-%03d  %-24s -> error: %a@." r.Tc_serve.Serve.id
                r.Tc_serve.Serve.expr Tc_serve.Serve.pp_error e)
        report.Tc_serve.Serve.responses;
    (* Everything below goes to stderr, strictly after the parallel
       section (DESIGN.md, "Parallel runtime"): generation-failure
       notices (buffered by [Serve.run]), the session counters — which
       differ cold vs warm store while the report above stays
       byte-identical (modulo wall_s/jobs) — and the per-batch metrics
       snapshot. *)
    List.iter
      (fun n -> Printf.eprintf "cogent: %s\n" n)
      report.Tc_serve.Serve.notices;
    prerr_string (Tc_serve.Serve.render_summary report.Tc_serve.Serve.summary);
    Format.eprintf "@.batch metrics@.%a@."
      Tc_obs.Metrics.pp
      (Tc_obs.Metrics.snapshot Tc_obs.Metrics.global);
    Format.pp_print_flush Format.err_formatter ();
    match flight_dump with
    | None -> ()
    | Some path ->
        Tc_obs.Flightrec.dump ~path Tc_obs.Flightrec.global;
        Printf.eprintf "cogent: wrote flight recorder (%d entries) to %s\n%!"
          (List.length (Tc_obs.Flightrec.entries Tc_obs.Flightrec.global))
          path
  in
  let requests =
    Arg.(value & opt (some string) None & info [ "requests" ] ~docv:"FILE"
           ~doc:"JSONL workload: one request object per line, e.g. \
                 {\"expr\":\"abcd-aebf-dfce\",\"sizes\":\"a=48,b=48,...\"} \
                 with optional \"arch\" and \"precision\" overrides.")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Plan-store directory: cached plans are loaded from it \
                 before the batch and flushed back after, so a warm \
                 restart re-generates nothing.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the per-request report to stdout as a cogent-bench/1 \
                 document instead of text (session counters still go to \
                 stderr).")
  in
  let flight_dump =
    Arg.(value & opt (some string) None & info [ "flight-dump" ] ~docv:"FILE"
           ~doc:"After the batch, dump the flight recorder — the last N \
                 per-request summaries (id, cache key, dispatch, error, \
                 timings) — to $(docv) as JSONL.  The post-mortem record \
                 for batches with Generation/Crashed errors.")
  in
  let audit_ledger =
    Arg.(value & opt (some string) None & info [ "audit-ledger" ] ~docv:"DIR"
           ~doc:"Attach the cost-model accuracy collector and write the \
                 batch's samples to $(docv)/audit.jsonl (cogent-audit/1): \
                 per request, the Algorithm-3 transaction estimate vs the \
                 interpreter-measured ground truth, both engines' \
                 predicted times, and the dispatch regret.  Aggregate with \
                 the audit subcommand.  The ledger is deterministic: \
                 byte-identical at any --jobs and across cold/warm stores.")
  in
  Cmd.v
    (Cmd.info "serve" ~version ~exits
       ~doc:"Serve a batched workload of contraction requests: dedup by \
             plan key, search in parallel, dispatch each request to the \
             COGENT kernel or the TTGT pipeline by predicted time")
    Term.(const run $ harness_term ~trace:true $ requests $ store $ device_term
          $ json $ flight_dump $ audit_ledger)

(* ---- audit ---- *)

let audit_cmd =
  let run harness ledger json diff =
    harness @@ fun () ->
    (* [Ledger.load] reads a missing file as an empty ledger; here that
       is a mistyped path, not a ledger with no samples. *)
    let path = Tc_audit.Ledger.file ~dir:ledger in
    if not (Sys.file_exists path) then
      or_die Runtime (Error (Printf.sprintf "no audit ledger at %s" path));
    let samples = or_die Runtime (Tc_audit.Ledger.load ~dir:ledger) in
    match diff with
    | Some baseline_path ->
        (* The CI drift gate: compare this ledger's aggregation against a
           checked-in cogent-bench/1 baseline under the audit tolerances
           (counts and pred_ms_sum exact; error quantiles Lower_better). *)
        let baseline =
          or_die Runtime (Tc_profile.Benchrep.read ~path:baseline_path)
        in
        let deltas =
          Tc_profile.Benchrep.diff ~tolerances:Tc_audit.Audit.tolerances
            ~baseline (Tc_audit.Audit.doc samples)
        in
        print_string (Tc_profile.Benchrep.render_diff ~target:"audit" deltas);
        if Tc_profile.Benchrep.regressions deltas <> [] then exit 1
    | None ->
        if json then
          (* wall_s/jobs stay 0: the JSON document is a pure function of
             the ledger, byte-identical across job counts and replays. *)
          print_endline
            (Tc_obs.Json.to_string_pretty
               (Tc_profile.Benchrep.to_json (Tc_audit.Audit.doc samples)))
        else print_string (Tc_audit.Audit.render samples)
  in
  let ledger =
    Arg.(value & opt string "audit-ledger" & info [ "ledger" ] ~docv:"DIR"
           ~doc:"The cogent-audit/1 ledger directory to aggregate (as \
                 written by serve --audit-ledger or the accuracy bench \
                 target).  A directory without $(docv)/audit.jsonl is a \
                 runtime error (exit 1).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the aggregation as a cogent-bench/1 document (target \
                 audit) instead of the human-readable calibration report.  \
                 A pure function of the ledger: byte-identical at any job \
                 count.")
  in
  let diff =
    Arg.(value & opt (some string) None & info [ "diff" ] ~docv:"BASELINE"
           ~doc:"Drift gate: diff this ledger's aggregation against the \
                 cogent-bench/1 document $(docv) under the audit \
                 tolerances and exit 1 on any regression (calibration \
                 error drift, dispatch flip, new regret).")
  in
  Cmd.v
    (Cmd.info "audit" ~version ~exits
       ~doc:"Aggregate a cost-model accuracy ledger: error quantiles, \
             dispatch mix, regret account, CI drift gate")
    Term.(const run $ harness_term ~trace:false $ ledger $ json $ diff)

(* ---- triples ---- *)

let triples_cmd =
  let run harness arch nh np =
    harness @@ fun () ->
    Format.printf
      "CCSD(T) triples sweep estimate at nh=%d, np=%d on %s (FP64):@." nh np
      arch.Arch.name;
    List.iter
      (fun sw ->
        Format.printf "  %-14s %10.1f ms  (%.0f GFLOPS)@."
          sw.Tc_ccsdt.Triples.strategy
          (sw.Tc_ccsdt.Triples.time_s *. 1e3)
          sw.Tc_ccsdt.Triples.gflops)
      (Tc_ccsdt.Triples.sweep_estimate arch Precision.FP64 ~nh ~np);
    if nh <= 4 && np <= 6 then begin
      let sys = Tc_ccsdt.Triples.make ~nh ~np () in
      Format.printf "@.E(T) at this (toy) size: %.10f@."
        (Tc_ccsdt.Triples.correction
           ~method_:Tc_ccsdt.Triples.Cogent_plans sys)
    end
  in
  let nh =
    Arg.(value & opt int 16 & info [ "nh" ] ~docv:"N"
           ~doc:"Occupied orbitals (a,b,c extents).")
  in
  let np =
    Arg.(value & opt int 48 & info [ "np" ] ~docv:"N"
           ~doc:"Virtual orbitals (d,e,f extents).")
  in
  Cmd.v
    (Cmd.info "triples" ~version ~exits
       ~doc:"Estimate a CCSD(T) triples sweep; compute E(T) at toy sizes")
    Term.(const run $ harness_term ~trace:true $ arch_arg $ nh $ np)

(* ---- suite ---- *)

let suite_cmd =
  let run harness =
    harness @@ fun () ->
    Format.printf "%-3s %-8s %-12s %-18s %s@." "#" "name" "group" "contraction"
      "sizes";
    List.iter
      (fun e ->
        Format.printf "%-3d %-8s %-12s %-18s %s@." e.Tc_tccg.Suite.id
          e.Tc_tccg.Suite.name
          (Tc_tccg.Suite.group_to_string e.Tc_tccg.Suite.group)
          e.Tc_tccg.Suite.expr
          (String.concat ","
             (List.map
                (fun (i, n) -> Printf.sprintf "%c=%d" i n)
                e.Tc_tccg.Suite.sizes)))
      Tc_tccg.Suite.all
  in
  Cmd.v
    (Cmd.info "suite" ~version ~exits ~doc:"List the TCCG benchmark entries")
    Term.(const run $ harness_term ~trace:false)

let main =
  let doc = "COGENT: a code generator for high-performance tensor contractions on GPUs" in
  Cmd.group (Cmd.info "cogent" ~version ~exits ~doc)
    [
      gen_cmd; plan_cmd; explain_cmd; profile_cmd; bench_cmd; serve_cmd;
      audit_cmd; triples_cmd; suite_cmd;
    ]

let () =
  exit
    (match Cmd.eval_value main with
    | Ok (`Ok () | `Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
