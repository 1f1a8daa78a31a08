(* Bechamel micro-benchmarks of the code generator itself: the paper's
   headline operational claim is "significantly reduced code generation
   time" versus hours of auto-tuning, so we measure the cost of every stage
   of COGENT's pipeline on real suite entries. *)

open Bechamel
open Toolkit

let problem_eq1 = Tc_tccg.Suite.problem (Option.get (Tc_tccg.Suite.find "ccsd_1"))
let problem_sd2 = Tc_tccg.Suite.problem Tc_tccg.Suite.sd2_1

(* A contraction with real operands for the host-side execution paths
   (the plan interpreter's inner product and the reference einsum). *)
let interp_case expr sizes =
  let open Tc_tensor in
  let problem = Tc_expr.Problem.of_string_exn expr ~sizes in
  let info = Tc_expr.Problem.info problem in
  let orig = info.Tc_expr.Classify.original in
  let shape_of indices =
    Shape.of_indices ~sizes:(Tc_expr.Problem.sizes problem) indices
  in
  let lhs = Dense.random ~seed:11 (shape_of orig.Tc_expr.Ast.lhs.Tc_expr.Ast.indices) in
  let rhs = Dense.random ~seed:12 (shape_of orig.Tc_expr.Ast.rhs.Tc_expr.Ast.indices) in
  (problem, info, lhs, rhs)

let gemm64 = interp_case "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]

(* Eq. 1 at odd, tile-misaligned extents like the verify benchmark's:
   210 small blocks, every one with partial tiles. *)
let eq1_odd =
  interp_case (Option.get (Tc_tccg.Suite.find "ccsd_1")).Tc_tccg.Suite.expr
    [ ('a', 11); ('b', 7); ('c', 5); ('d', 9); ('e', 3); ('f', 3) ]

(* The driver's plan for [problem] under [ctx]. *)
let selected_plan ctx problem =
  (Cogent.Driver.run_exn ctx problem).Cogent.Driver.plan

let staged_tests =
  let full problem () =
    ignore (Cogent.Driver.run_exn Cogent.Ctx.default problem)
  in
  let pipeline problem () =
    ignore
      (Cogent.Pipeline.search ~topk:8 Tc_gpu.Arch.v100 Tc_gpu.Precision.FP64
         problem)
  in
  let codegen problem =
    let plan = selected_plan Cogent.Ctx.default problem in
    fun () -> ignore (Cogent.Codegen.emit plan)
  in
  (* The double-buffered lowering restructures the K-loop (prologue +
     rotation), so its lower/emit cost is tracked separately from the
     classic schema's. *)
  let pipelined =
    selected_plan
      (Cogent.Ctx.make ~arch:Tc_gpu.Arch.a100 ~schema:Tc_gpu.Schema.Pipelined
         ())
  in
  let lower_pipelined problem =
    let plan = pipelined problem in
    fun () -> ignore (Cogent.Codegen.lower plan)
  in
  let emit_pipelined problem =
    let plan = pipelined problem in
    fun () -> ignore (Cogent.Codegen.emit plan)
  in
  let simulate problem =
    let plan = selected_plan Cogent.Ctx.default problem in
    fun () -> ignore (Tc_sim.Simkernel.run plan)
  in
  (* The lanes serve races per request: every feasible schema of the
     A100/fp16 plan, sharing one traffic count. *)
  let simulate_race problem =
    let plan =
      selected_plan
        (Cogent.Ctx.make ~arch:Tc_gpu.Arch.a100
           ~precision:Tc_gpu.Precision.FP16 ())
        problem
    in
    fun () -> ignore (Tc_sim.Simkernel.race plan)
  in
  let interp_execute (problem, _, lhs, rhs) =
    let plan = selected_plan Cogent.Ctx.default problem in
    fun () -> ignore (Cogent.Interp.execute plan ~lhs ~rhs)
  in
  (* The counter-only replay: one transaction sweep per operand for every
     (block, step), the audit's ground truth. *)
  let interp_measure (problem, _, _, _) =
    let plan = selected_plan Cogent.Ctx.default problem in
    fun () -> ignore (Cogent.Interp.measure plan)
  in
  (* One plan-store row as [Planstore.load] decodes it: the stored line
     of an A100/fp16 plan, parsed, then decoded (plan cost recomputed). *)
  let planstore_row problem =
    let open Tc_obs in
    let ctx =
      Cogent.Ctx.make ~arch:Tc_gpu.Arch.a100 ~precision:Tc_gpu.Precision.FP16
        ()
    in
    let line =
      Json.to_string
        (Json.Obj
           [
             ("key", Json.String (Cogent.Cache.key ctx problem));
             ( "entry",
               Tc_serve.Planstore.entry_to_json
                 (Cogent.Driver.run_exn ctx problem) );
           ])
    in
    fun () ->
      ignore
        (Result.bind (Json.parse line) (fun j ->
             Result.bind (Json.field "entry" j)
               Tc_serve.Planstore.entry_of_json))
  in
  let contract_ref =
    let _, info, lhs, rhs = gemm64 in
    fun () ->
      ignore
        (Tc_tensor.Contract_ref.contract
           ~out_indices:info.Tc_expr.Classify.externals lhs rhs)
  in
  [
    Test.make ~name:"pipeline-search/eq1" (Staged.stage (pipeline problem_eq1));
    Test.make ~name:"pipeline-search/sd2_1"
      (Staged.stage (pipeline problem_sd2));
    Test.make ~name:"codegen-emit/eq1" (Staged.stage (codegen problem_eq1));
    Test.make ~name:"codegen-emit/sd2_1" (Staged.stage (codegen problem_sd2));
    Test.make ~name:"lower-pipelined/eq1"
      (Staged.stage (lower_pipelined problem_eq1));
    Test.make ~name:"lower-pipelined/sd2_1"
      (Staged.stage (lower_pipelined problem_sd2));
    Test.make ~name:"emit-pipelined/eq1"
      (Staged.stage (emit_pipelined problem_eq1));
    Test.make ~name:"emit-pipelined/sd2_1"
      (Staged.stage (emit_pipelined problem_sd2));
    Test.make ~name:"simulate/sd2_1" (Staged.stage (simulate problem_sd2));
    Test.make ~name:"simulate-race/sd2_1"
      (Staged.stage (simulate_race problem_sd2));
    Test.make ~name:"interp-execute/gemm64"
      (Staged.stage (interp_execute gemm64));
    Test.make ~name:"interp-execute/odd" (Staged.stage (interp_execute eq1_odd));
    Test.make ~name:"interp-measure/odd" (Staged.stage (interp_measure eq1_odd));
    Test.make ~name:"contract-ref/gemm64" (Staged.stage contract_ref);
    Test.make ~name:"planstore-row/decode"
      (Staged.stage (planstore_row problem_sd2));
    Test.make ~name:"generate-end-to-end/eq1" (Staged.stage (full problem_eq1));
    Test.make ~name:"generate-end-to-end/sd2_1" (Staged.stage (full problem_sd2));
  ]

(* Stage timings are machine-dependent, so the "ns_per_call" metric
   carries no gate tolerance (un-tolerated metrics are trend-watched but
   never judged, see Benchrep.diff).  The target IS in the baseline: the
   gate still trips if a micro entry disappears, and the deterministic
   branch-and-bound counters below are held to zero drift — the
   planner-throughput tripwire. *)
let stage_entry name t =
  {
    Tc_profile.Benchrep.name;
    expr = "";
    arch = "host";
    precision = "n/a";
    strategies =
      [
        Figures.strat "bechamel" (Figures.finite "ns_per_call" t);
      ];
  }

(* Deterministic counters of the fused pipeline on the same entries the
   timings above stream: exact at any job count, so the regression gate
   holds them to zero drift (Benchrep.default_tolerances gates
   enumerated/kept/bound_aborted/bound_abort_rate as Exact). *)
let search_entry suite_name problem =
  let o =
    Cogent.Pipeline.search ~topk:8 Tc_gpu.Arch.v100 Tc_gpu.Precision.FP64
      problem
  in
  let enumerated = o.Cogent.Pipeline.stats.Cogent.Prune.enumerated
  and kept = o.Cogent.Pipeline.stats.Cogent.Prune.kept in
  {
    Tc_profile.Benchrep.name = "pipeline-counters/" ^ suite_name;
    expr = "";
    arch = "v100";
    precision = "fp64";
    strategies =
      [
        Figures.strat "search"
          [
            ("enumerated", float_of_int enumerated);
            ("kept", float_of_int kept);
            ("bound_aborted", float_of_int o.Cogent.Pipeline.bound_aborted);
            ( "bound_abort_rate",
              if kept = 0 then 0.0
              else
                float_of_int o.Cogent.Pipeline.bound_aborted
                /. float_of_int kept );
          ];
      ];
  }

let run () =
  Report.section
    "Code-generation time (Bechamel; model-driven COGENT vs hours of \
     autotuning)";
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-28s %15s\n" "stage" "time per call";
  Report.hrule 46;
  let entries = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] ->
              let pretty =
                if t > 1e9 then Printf.sprintf "%8.2f s " (t /. 1e9)
                else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
                else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
                else Printf.sprintf "%8.0f ns" t
              in
              Printf.printf "%-28s %15s\n" name pretty;
              entries := stage_entry name t :: !entries
          | _ -> Printf.printf "%-28s %15s\n" name "n/a")
        results)
    staged_tests;
  List.rev !entries
  @ [ search_entry "eq1" problem_eq1; search_entry "sd2_1" problem_sd2 ]
