(* Tests for the cost-model accuracy observatory: sample invariants, the
   ledger codec and its failure ladder, the aggregation document, the
   drift gate, and the golden-locked calibration report. *)

open Tc_expr
module Audit = Tc_audit.Audit
module Ledger = Tc_audit.Ledger
module Benchrep = Tc_profile.Benchrep

let check = Alcotest.check
let fail = Alcotest.fail
let ctx = Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops ()

let eq1 =
  Problem.of_string_exn "abcd-aebf-dfce"
    ~sizes:[ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]

let gemm =
  Problem.of_string_exn "ab-ac-cb"
    ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ]

let plan_of problem =
  match Cogent.Driver.run ctx problem with
  | Ok r -> r.Cogent.Driver.plan
  | Error e -> fail (Cogent.Driver.error_to_string e)

let sample_of_plan ?(suite = "eq1") ?(request = "eq1") ctx plan =
  let dispatch = Audit.dispatch ctx plan in
  Audit.sample ~suite ~request
    ~key:(Cogent.Cache.key ctx plan.Cogent.Plan.problem)
    ~dispatch
    ~regret:(Audit.regret ~ctx ~own:plan.Cogent.Plan.problem dispatch plan)
    (Tc_profile.Evidence.make ~measure:true plan)

let sample_of ?suite ?request problem =
  sample_of_plan ?suite ?request ctx (plan_of problem)

let fresh_dir () =
  let f = Filename.temp_file "cogent_audit" ".ledger" in
  Sys.remove f;
  f

(* ---- sample invariants ---- *)

let test_sample_invariants () =
  let s = sample_of eq1 in
  check Alcotest.string "canonical TCCG expr" "abcd-aebf-dfce" s.Audit.expr;
  check Alcotest.bool "strategy is a dispatch side" true
    (List.mem s.Audit.strategy [ "cogent"; "ttgt" ]);
  check Alcotest.bool "strategy is the predicted minimum" true
    (if s.Audit.strategy = "cogent" then
       s.Audit.pred_cogent_s <= s.Audit.pred_ttgt_s
     else s.Audit.pred_ttgt_s < s.Audit.pred_cogent_s);
  (* own problem defaulted to the representative: the chosen side is the
     minimum by construction, so regret is identically zero *)
  check (Alcotest.float 0.0) "regret 0 on the representative" 0.0
    s.Audit.own.regret_s;
  check Alcotest.bool "own times are the representative's" true
    (Float.equal s.Audit.own.own_cogent_s s.Audit.pred_cogent_s
    && Float.equal s.Audit.own.own_ttgt_s s.Audit.pred_ttgt_s);
  check Alcotest.bool "no own-extents fallback" false s.Audit.own.own_approx;
  (* the simulator contract: exact counters agree with the interpreter *)
  check Alcotest.bool "no simulator mismatch" false (Audit.sim_mismatch s);
  check Alcotest.bool "model error is a finite ratio" true
    (Float.is_finite (Audit.tx_rel_err s) && Audit.tx_rel_err s >= 0.0);
  check (Alcotest.float 1e-9) "signed error magnitude matches"
    (Audit.tx_rel_err s)
    (Float.abs (Audit.tx_signed_err s));
  check Alcotest.bool "measured counters are populated" true
    (Audit.tx_total s.Audit.measured_tx > 0.0)

let test_dispatch_regret_on_own_extents () =
  let plan = plan_of gemm in
  (* same size class (60 rounds to 64), different extents: dispatch keeps
     the representative's decision, regret is evaluated at 60^3 *)
  let own =
    Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 60); ('b', 60); ('c', 60) ]
  in
  let r = Audit.dispatch_regret ~ctx ~own plan in
  check Alcotest.bool "own predictions are positive" true
    (r.Audit.own_cogent_s > 0.0 && r.Audit.own_ttgt_s > 0.0);
  check Alcotest.bool "regret is non-negative" true (r.Audit.regret_s >= 0.0);
  check Alcotest.bool "own extents re-planned (no fallback)" false
    r.Audit.own_approx

(* At the representative problem the chosen engine is the minimum, so
   regret is 0 whatever the plan's schema: the own-extent kernel must run
   under the served schema (the race's chosen lane), not the plan's own
   or the classic one.  On A100/fp16 the pipelined kernels of ccsd_1 and
   ccsd_9 beat TTGT where their classic variants do not. *)
let test_regret_zero_on_representative_every_schema () =
  let arch = Tc_gpu.Arch.a100 and precision = Tc_gpu.Precision.FP16 in
  let ctx =
    Cogent.Ctx.make ~arch ~precision ~measure:Tc_sim.Simkernel.gflops ()
  in
  List.iter
    (fun name ->
      let problem =
        Tc_tccg.Suite.problem (Option.get (Tc_tccg.Suite.find name))
      in
      let plan =
        match Cogent.Driver.run ctx problem with
        | Ok r -> r.Cogent.Driver.plan
        | Error e -> fail (Cogent.Driver.error_to_string e)
      in
      let schemas =
        Cogent.Plan.feasible_schemas ~arch ~precision plan.Cogent.Plan.mapping
      in
      check Alcotest.bool (name ^ ": a pipelined schema is raced") true
        (List.exists Tc_gpu.Schema.pipelined schemas);
      List.iter
        (fun sc ->
          let what = name ^ "/" ^ Tc_gpu.Schema.to_string sc in
          let p = Result.get_ok (Cogent.Plan.with_schema sc plan) in
          let { Audit.own_cogent_s = oc; own_ttgt_s = ot; regret_s = regret;
                own_approx = approx } =
            Audit.dispatch_regret ~ctx ~own:problem p
          in
          let served =
            Result.get_ok
              (Cogent.Plan.with_schema (Audit.dispatch ctx p).Audit.schema plan)
          in
          check (Alcotest.float 0.0) (what ^ ": regret") 0.0 regret;
          check Alcotest.bool (what ^ ": own cogent time is the served schema's")
            true
            (Float.equal oc
               (Tc_sim.Simkernel.run served).Tc_sim.Simkernel.time_s);
          check Alcotest.bool (what ^ ": own ttgt time is positive") true
            (ot > 0.0);
          check Alcotest.bool (what ^ ": no fallback") false approx)
        schemas)
    [ "ccsd_1"; "ccsd_9" ]

(* Pricing the own extents without building a plan changes no regret:
   every TCCG entry on every served target, at jittered own extents, both
   where the cached mapping fits and where it falls back ([own_approx]),
   equals the definition that built a plan at the own extents. *)
let test_regret_is_plan_built_regret () =
  let st = Random.State.make [| 0x5eed |] in
  let fits = ref 0 and approx = ref 0 in
  let bits (r : Audit.regret) =
    Printf.sprintf "%h %h %h %b" r.own_cogent_s r.own_ttgt_s r.regret_s
      r.own_approx
  in
  List.iter
    (fun (arch, precision) ->
      let ctx = Cogent.Ctx.make ~arch ~precision () in
      List.iter
        (fun e ->
          let problem = Tc_tccg.Suite.problem e in
          let plan = (Cogent.Driver.run_exn ctx problem).Cogent.Driver.plan in
          let d = Audit.dispatch ctx plan in
          List.iter
            (fun own ->
              let r = Audit.regret ~ctx ~own d plan in
              incr (if r.Audit.own_approx then approx else fits);
              check Alcotest.string
                (Printf.sprintf "%s %s/%s" e.Tc_tccg.Suite.name
                   arch.Tc_gpu.Arch.name
                   (Tc_gpu.Precision.to_string precision))
                (bits (Oracle.regret ~ctx ~own d plan))
                (bits r))
            (Gen.jittered ~n:4 st problem))
        Tc_tccg.Suite.all)
    Gen.perf_targets;
  check Alcotest.bool "fitting requests priced" true (!fits > 100);
  check Alcotest.bool "own_approx requests covered" true (!approx > 100)

(* ---- collector ---- *)

let test_collector_order () =
  let c = Audit.collector () in
  let a = sample_of ~request:"r1" gemm in
  let b = sample_of ~request:"r2" eq1 in
  Audit.add c a;
  Audit.add c b;
  check (Alcotest.list Alcotest.string) "insertion order" [ "r1"; "r2" ]
    (List.map (fun s -> s.Audit.request) (Audit.samples c))

(* ---- ledger codec ---- *)

let test_ledger_roundtrip () =
  let rows = [ sample_of ~request:"r1" gemm; sample_of ~request:"r2" eq1 ] in
  let dir = fresh_dir () in
  Ledger.save ~dir rows;
  (match Ledger.load ~dir with
  | Error m -> fail m
  | Ok rows' ->
      check Alcotest.bool "samples round-trip bit-exactly" true (rows = rows'));
  (* saving twice is byte-stable (atomic rewrite, no append) *)
  let slurp () =
    let ic = open_in_bin (Ledger.file ~dir) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let first = slurp () in
  Ledger.save ~dir rows;
  check Alcotest.string "rewrite is byte-identical" first (slurp ());
  (* earlier versions wrote a ["degraded"] key after ["strategy"]; such a
     row still loads, to the same sample *)
  let with_degraded = function
    | Tc_obs.Json.Obj kvs ->
        Tc_obs.Json.Obj
          (List.concat_map
             (fun ((f, _) as kv) ->
               if f = "strategy" then
                 [ kv; ("degraded", Tc_obs.Json.Bool false) ]
               else [ kv ])
             kvs)
    | _ -> fail "row is not an object"
  in
  (match String.split_on_char '\n' first with
  | header :: row :: _ -> (
      match Tc_obs.Json.parse row with
      | Ok j ->
          Out_channel.with_open_bin (Ledger.file ~dir) (fun oc ->
              Printf.fprintf oc "%s\n%s\n" header
                (Tc_obs.Json.to_string (with_degraded j)))
      | Error m -> fail m)
  | _ -> fail "expected a header and a row");
  match Ledger.load ~dir with
  | Ok rows' ->
      check Alcotest.bool "a row with a degraded key loads" true
        (rows' = [ List.hd rows ])
  | Error m -> fail m

let test_ledger_missing_is_empty () =
  match Ledger.load ~dir:(fresh_dir ()) with
  | Ok [] -> ()
  | Ok _ -> fail "missing ledger must load as empty"
  | Error m -> fail m

let test_ledger_rejects_wrong_schema () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let oc = open_out (Ledger.file ~dir) in
  output_string oc "{\"schema\":\"cogent-audit/999\"}\n";
  close_out oc;
  match Ledger.load ~dir with
  | Error _ -> ()
  | Ok _ -> fail "wrong-schema ledger must be rejected"

let test_ledger_skips_corrupt_row_with_line () =
  let rows = [ sample_of ~request:"r1" gemm; sample_of ~request:"r2" eq1 ] in
  let dir = fresh_dir () in
  Ledger.save ~dir rows;
  (* corrupt the middle: header is line 1, r1 line 2, garbage line 3,
     r2 line 4 *)
  let path = Ledger.file ~dir in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  (match List.rev !lines with
  | header :: r1 :: rest ->
      let oc = open_out path in
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (header :: r1 :: "{\"suite\":" :: rest);
      close_out oc
  | _ -> fail "expected a header and two rows");
  let metric name =
    Option.value ~default:0.0 (Tc_obs.Metrics.value Tc_obs.Metrics.global name)
  in
  let before = metric "cogent.audit.ledger.corrupt_rows" in
  (match Ledger.load ~dir with
  | Error m -> fail m
  | Ok rows' ->
      check Alcotest.int "both good rows survive" 2 (List.length rows');
      check Alcotest.bool "rows round-tripped" true (rows = rows'));
  check (Alcotest.float 0.0) "corrupt row counted" (before +. 1.0)
    (metric "cogent.audit.ledger.corrupt_rows");
  check (Alcotest.float 0.0) "gauge names the offending line" 3.0
    (metric "cogent.audit.ledger.corrupt_line")

(* ---- aggregation and the drift gate ---- *)

let two_suite_samples () =
  [
    sample_of ~suite:"s1" ~request:"r1" gemm;
    sample_of ~suite:"s1" ~request:"r2" eq1;
    sample_of ~suite:"s2" ~request:"r3" gemm;
  ]

let test_entries_grouping () =
  let es = Audit.entries (two_suite_samples ()) in
  check (Alcotest.list Alcotest.string) "one entry per group, in order"
    [ "s1/V100/fp64"; "s2/V100/fp64" ]
    (List.map (fun e -> e.Benchrep.name) es);
  let strategies (e : Benchrep.entry) =
    List.map (fun (s : Benchrep.strategy) -> s.Benchrep.strategy)
      e.Benchrep.strategies
  in
  List.iter
    (fun e ->
      check (Alcotest.list Alcotest.string) "calibration/dispatch/regret"
        [ "calibration"; "dispatch"; "regret" ]
        (strategies e))
    es;
  let s1 = List.hd es in
  let metric strat m =
    let s =
      List.find
        (fun (s : Benchrep.strategy) -> s.Benchrep.strategy = strat)
        s1.Benchrep.strategies
    in
    List.assoc m s.Benchrep.metrics
  in
  check (Alcotest.float 0.0) "sample count" 2.0 (metric "calibration" "samples");
  check (Alcotest.float 0.0) "dispatch mix sums to n" 2.0
    (metric "dispatch" "to_cogent" +. metric "dispatch" "to_ttgt");
  check (Alcotest.float 0.0) "no regret on representatives" 0.0
    (metric "regret" "requests")

let test_doc_is_pure () =
  let samples = two_suite_samples () in
  let d = Audit.doc samples in
  check Alcotest.string "target" "audit" d.Benchrep.target;
  check (Alcotest.float 0.0) "wall_s defaults to 0" 0.0 d.Benchrep.wall_s;
  check Alcotest.int "jobs defaults to 0" 0 d.Benchrep.jobs;
  (* the JSON document is a pure function of the samples *)
  let bytes doc = Tc_obs.Json.to_string_pretty (Benchrep.to_json doc) in
  check Alcotest.string "byte-stable" (bytes d) (bytes (Audit.doc samples))

(* The CI drift gate must trip when predicted times move — the footprint
   of any Simkernel calibration-constant change — and must stay green on
   an identical run. *)
let test_drift_gate_trips_on_prediction_shift () =
  let samples = two_suite_samples () in
  let baseline = Audit.doc samples in
  let same = Benchrep.diff ~tolerances:Audit.tolerances ~baseline baseline in
  check Alcotest.bool "identical run passes" true
    (Benchrep.regressions same = []);
  let perturb (e : Benchrep.entry) =
    {
      e with
      Benchrep.strategies =
        List.map
          (fun (s : Benchrep.strategy) ->
            {
              s with
              Benchrep.metrics =
                List.map
                  (fun (m, v) ->
                    if m = "pred_ms_sum" then (m, v *. 1.5) else (m, v))
                  s.Benchrep.metrics;
            })
          e.Benchrep.strategies;
    }
  in
  let drifted =
    { baseline with Benchrep.entries = List.map perturb baseline.Benchrep.entries }
  in
  let deltas = Benchrep.diff ~tolerances:Audit.tolerances ~baseline drifted in
  let regs = Benchrep.regressions deltas in
  check Alcotest.bool "prediction shift regresses" true (regs <> []);
  check Alcotest.bool "the tripwire is pred_ms_sum" true
    (List.for_all (fun d -> d.Benchrep.metric = "pred_ms_sum") regs);
  (* new regret also trips: requests is Lower_better with zero allowance *)
  let regress_regret (e : Benchrep.entry) =
    {
      e with
      Benchrep.strategies =
        List.map
          (fun (s : Benchrep.strategy) ->
            if s.Benchrep.strategy <> "regret" then s
            else
              {
                s with
                Benchrep.metrics =
                  List.map
                    (fun (m, v) ->
                      if m = "requests" then (m, v +. 1.0) else (m, v))
                    s.Benchrep.metrics;
              })
          e.Benchrep.strategies;
    }
  in
  let with_regret =
    {
      baseline with
      Benchrep.entries = List.map regress_regret baseline.Benchrep.entries;
    }
  in
  check Alcotest.bool "new regret regresses" true
    (Benchrep.regressions
       (Benchrep.diff ~tolerances:Audit.tolerances ~baseline with_regret)
    <> [])

(* ---- golden calibration report ---- *)

let golden_path file =
  (* dune materializes the golden files next to the test executable; fall
     back to the source tree for GOLDEN_UPDATE runs from the repo root. *)
  if Sys.getenv_opt "GOLDEN_UPDATE" <> None && Sys.file_exists "test/golden"
  then Filename.concat "test/golden" file
  else if Sys.file_exists (Filename.concat "golden" file) then
    Filename.concat "golden" file
  else Filename.concat "test/golden" file

let read_golden file =
  let ic = open_in (golden_path file) in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_golden label file actual =
  if Sys.getenv_opt "GOLDEN_UPDATE" <> None then begin
    let oc = open_out (golden_path file) in
    output_string oc actual;
    close_out oc
  end;
  check Alcotest.string label (read_golden file) actual

let test_render_golden () =
  check_golden "golden calibration report" "audit_eq1.txt"
    (Audit.render [ sample_of eq1 ])

let () =
  Alcotest.run "audit"
    [
      ( "sample",
        [
          Alcotest.test_case "sample invariants" `Quick test_sample_invariants;
          Alcotest.test_case "dispatch regret at own extents" `Quick
            test_dispatch_regret_on_own_extents;
          Alcotest.test_case "regret 0 on the representative, every schema"
            `Quick test_regret_zero_on_representative_every_schema;
          Alcotest.test_case "regret equals the plan-built definition" `Quick
            test_regret_is_plan_built_regret;
          Alcotest.test_case "collector keeps insertion order" `Quick
            test_collector_order;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "save/load round-trips bit-exactly" `Quick
            test_ledger_roundtrip;
          Alcotest.test_case "missing ledger is empty" `Quick
            test_ledger_missing_is_empty;
          Alcotest.test_case "wrong schema rejected" `Quick
            test_ledger_rejects_wrong_schema;
          Alcotest.test_case "corrupt row skipped with line number" `Quick
            test_ledger_skips_corrupt_row_with_line;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "entries group by suite/arch/precision" `Quick
            test_entries_grouping;
          Alcotest.test_case "doc is a pure function of the samples" `Quick
            test_doc_is_pure;
          Alcotest.test_case "drift gate trips on prediction shift" `Quick
            test_drift_gate_trips_on_prediction_shift;
          Alcotest.test_case "golden calibration report" `Quick
            test_render_golden;
        ] );
    ]
