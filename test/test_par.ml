(* Tests for Tc_par.Pool: the determinism contract (order preservation,
   index-ordered reduction, jobs-independence of every pipeline output),
   exception transparency, re-entrancy, and trace propagation onto worker
   domains.  Property tests run under the shared fixed seed
   (Gen.to_alcotest), so failures are reproducible. *)

open Tc_par

let check = Alcotest.check
let fail = Alcotest.fail

(* Pools of 2 and 4 jobs exercise cross-domain scheduling even on a
   single-core host (domains timeshare); 1 job is the degenerate pool. *)
let with_jobs = Gen.with_jobs

(* ---- map: order preservation and sequential degradation ---- *)

let test_map_ordering () =
  with_jobs 4 @@ fun () ->
  let xs = List.init 100 Fun.id in
  let f x = (x * 37) mod 101 in
  check (Alcotest.list Alcotest.int) "map preserves input order" (List.map f xs)
    (Pool.map f xs);
  check (Alcotest.list Alcotest.int) "empty list" []
    (Pool.map (fun _ -> fail "called on empty input") [])

let test_jobs1_is_sequential () =
  with_jobs 0 @@ fun () ->
  check Alcotest.int "clamped to 1" 1 (Pool.default_jobs ());
  (* the jobs=1 path must observe strictly left-to-right evaluation, like
     List.map — this would be flaky if a domain were involved *)
  let order = ref [] in
  let r =
    Pool.map
      (fun x ->
        order := x :: !order;
        x + 1)
      [ 1; 2; 3; 4 ]
  in
  check (Alcotest.list Alcotest.int) "results" [ 2; 3; 4; 5 ] r;
  check (Alcotest.list Alcotest.int) "left-to-right evaluation" [ 4; 3; 2; 1 ]
    !order

(* ---- exception transparency ---- *)

exception Boom of int

let test_exception_propagation () =
  with_jobs 4 @@ fun () ->
  (match
     Pool.map
       (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
       [ 1; 2; 3; 4; 5; 6 ]
   with
  | _ -> fail "expected an exception"
  | exception Boom x ->
      check Alcotest.int "lowest-indexed failure is re-raised" 2 x);
  (* the pool survives a failing batch *)
  check (Alcotest.list Alcotest.int) "pool still works" [ 2; 4; 6 ]
    (Pool.map (fun x -> 2 * x) [ 1; 2; 3 ])

(* ---- re-entrancy: nested maps on the same pool must not deadlock ---- *)

let test_nested_map () =
  with_jobs 2 @@ fun () ->
  let r =
    Pool.map
      (fun i ->
        Pool.map (fun j -> (10 * i) + j) [ 1; 2; 3 ]
        |> List.fold_left ( + ) 0)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  check (Alcotest.list Alcotest.int) "nested fan-out completes"
    (List.map (fun i -> (30 * i) + 6) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    r

(* ---- fold_best: index-ordered reduction, earliest tie wins ---- *)

let test_fold_best () =
  with_jobs 4 @@ fun () ->
  check (Alcotest.option Alcotest.int) "argmax" (Some 9)
    (Pool.fold_best ~better:( > ) Fun.id [ 3; 9; 2; 7; 1 ]);
  check (Alcotest.option Alcotest.int) "empty input" None
    (Pool.fold_best ~better:( > ) Fun.id []);
  let r =
    Pool.fold_best
      ~better:(fun (_, a) (_, b) -> a > b)
      Fun.id
      [ (0, 5); (1, 9); (2, 9); (3, 9) ]
  in
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "strict better keeps the earliest tie" (Some (1, 9)) r

let test_map_fold () =
  with_jobs 4 @@ fun () ->
  (* a non-commutative fold exposes any reduction-order difference *)
  let xs = List.init 50 Fun.id in
  let f x = string_of_int ((x * 13) mod 17) in
  check Alcotest.string "reduces in index order"
    (String.concat "," (List.map f xs))
    (Pool.map_fold ~map:f ~init:""
       ~fold:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
       xs);
  check Alcotest.int "empty input yields init" 42
    (Pool.map_fold ~map:Fun.id ~init:42 ~fold:( + ) [])

(* ---- trace propagation: spans from worker domains land in the
   caller's installed context (Domain.DLS ambient, re-installed by the
   pool around each item) ---- *)

let test_trace_propagation () =
  with_jobs 4 @@ fun () ->
  let t = Tc_obs.Trace.make () in
  let squares =
    Tc_obs.Trace.with_installed t (fun () ->
        Pool.map
          (fun i -> Tc_obs.Trace.with_span "par.item" (fun () -> i * i))
          [ 1; 2; 3; 4; 5 ])
  in
  check (Alcotest.list Alcotest.int) "results" [ 1; 4; 9; 16; 25 ] squares;
  let items =
    List.filter
      (function
        | Tc_obs.Trace.Span { name = "par.item"; _ } -> true | _ -> false)
      (Tc_obs.Trace.events t)
  in
  check Alcotest.int "every item's span reached the installed sink" 5
    (List.length items);
  check Alcotest.bool "nothing leaks to the ambient context after" true
    (Tc_obs.Trace.installed () = None)

(* The ambient request scope travels with the ambient context: spans
   recorded by pool items stay attributed to the submitting request. *)
let test_request_propagation () =
  with_jobs 4 @@ fun () ->
  let t = Tc_obs.Trace.make () in
  Tc_obs.Trace.with_installed t (fun () ->
      Tc_obs.Trace.with_request ~id:"req-042" "serve.generate" (fun () ->
          ignore
            (Pool.map
               (fun i -> Tc_obs.Trace.with_span "par.item" (fun () -> i))
               [ 1; 2; 3; 4; 5 ])));
  let stamps =
    List.filter_map
      (function
        | Tc_obs.Trace.Span { name = "par.item"; args; _ } ->
            Some (List.assoc_opt "request" args)
        | _ -> None)
      (Tc_obs.Trace.events t)
  in
  check Alcotest.int "five item spans" 5 (List.length stamps);
  check Alcotest.bool "every item span is stamped with the request" true
    (List.for_all (fun s -> s = Some (Tc_obs.Trace.String "req-042")) stamps);
  check
    (Alcotest.option Alcotest.string)
    "request scope does not leak" None
    (Tc_obs.Trace.current_request ())

(* ---- properties under the shared fixed seed ---- *)

let map_matches_sequential =
  QCheck.Test.make ~count:100 ~name:"Pool.map == List.map at jobs 1 and 4"
    QCheck.(list small_int)
    (fun xs ->
      let f x = (x * x) - (3 * x) + 1 in
      let expected = List.map f xs in
      with_jobs 4 (fun () -> Pool.map f xs) = expected
      && with_jobs 1 (fun () -> Pool.map f xs) = expected)

(* The pipeline-level determinism contract: generation (model ranking +
   measured refinement on the default pool) must select the same plan and
   produce the same ranked costs at any job count. *)

let driver_deterministic_across_jobs =
  QCheck.Test.make ~count:15
    ~name:"Driver.generate is bit-identical at jobs 1 vs 4" Gen.case_arbitrary
    (fun c ->
      let run jobs =
        with_jobs jobs @@ fun () ->
        Cogent.Driver.run_exn
          (Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops ())
          c.Gen.problem
      in
      let r1 = run 1 in
      let r4 = run 4 in
      Cogent.Mapping.compare r1.Cogent.Driver.plan.Cogent.Plan.mapping
        r4.Cogent.Driver.plan.Cogent.Plan.mapping
      = 0
      && List.equal
           (fun (m, cost) (m', cost') ->
             Cogent.Mapping.compare m m' = 0 && Float.equal cost cost')
           r1.Cogent.Driver.ranked r4.Cogent.Driver.ranked)

(* Histogram exposition and quantile summaries must not depend on how
   observations interleave across pool domains.  Bucket counts are
   order-independent increments; the observed values are dyadic
   rationals (multiples of 1/8, derived from the generated problem's
   extents), so even the floating-point [sum] is exact and therefore
   associative — the same guarantee the serving layer gets by observing
   its deterministic histograms sequentially. *)
let histogram_exposition_jobs_invariant =
  QCheck.Test.make ~count:25
    ~name:"histogram exposition + quantiles identical at jobs 1 vs 4"
    Gen.case_arbitrary
    (fun c ->
      let problem = c.Gen.problem in
      let info = Tc_expr.Problem.info problem in
      let obs =
        List.concat_map
          (fun i ->
            let e = Tc_expr.Problem.extent problem i in
            [ float_of_int (e land 63) *. 0.125; 0.25 ])
          (Tc_expr.Classify.all_indices info)
      in
      let run jobs =
        with_jobs jobs (fun () ->
            let reg = Tc_obs.Metrics.create () in
            let h =
              Tc_obs.Metrics.histogram ~registry:reg
                ~buckets:[ 0.5; 1.0; 2.0; 4.0 ] "par.lat"
            in
            ignore
              (Pool.map (fun v -> Tc_obs.Metrics.observe h v) obs);
            let snap = Tc_obs.Metrics.snapshot reg in
            ( Tc_obs.Metrics.to_prometheus snap,
              List.concat_map Tc_obs.Metrics.quantile_summary snap ))
      in
      run 1 = run 4)

(* ---- plan cache: a plain memo; use is counted in the global
   [cogent.cache.*] counters ---- *)

let global_value name =
  Option.value ~default:0.0 (Tc_obs.Metrics.value Tc_obs.Metrics.global name)

let hits () = global_value "cogent.cache.hits"
let misses () = global_value "cogent.cache.misses"

let check_ok = function
  | Ok r -> r
  | Error e -> fail (Cogent.Driver.error_to_string e)

let same_plan what (a : Cogent.Driver.t) (b : Cogent.Driver.t) =
  check Alcotest.int what 0
    (Cogent.Mapping.compare a.Cogent.Driver.plan.Cogent.Plan.mapping
       b.Cogent.Driver.plan.Cogent.Plan.mapping)

(* Four domains race on one key of a fresh cache: each may search (the
   first insert wins), all get the same plan, and once the races are
   over the key is a hit. *)
let test_cache_race () =
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ]
  in
  let ctx = Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops () in
  let cache = Cogent.Cache.create () in
  let hits0 = hits () and misses0 = misses () in
  let plans =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Cogent.Cache.find_or_generate_ctx cache ctx problem))
    |> List.map (fun d -> check_ok (Domain.join d))
  in
  let first = List.hd plans in
  List.iter (same_plan "every racer gets the same plan" first) plans;
  let raced_misses = misses () -. misses0 in
  check Alcotest.bool "at least one racer searched" true (raced_misses >= 1.0);
  check (Alcotest.float 0.0) "every racer counted once" 4.0
    (hits () -. hits0 +. raced_misses);
  let hits1 = hits () in
  same_plan "the cached plan" first
    (check_ok (Cogent.Cache.find_or_generate_ctx cache ctx problem));
  check (Alcotest.float 0.0) "the fifth call is a hit" 1.0 (hits () -. hits1);
  check (Alcotest.float 0.0) "and searches nothing" raced_misses
    (misses () -. misses0)

(* A generation that fails and one that raises insert nothing: asking the
   same key again searches again. *)
let test_cache_errors_not_cached () =
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 32); ('b', 64); ('c', 64) ]
  in
  let cache = Cogent.Cache.create () in
  let counts_a_miss what f =
    let m0 = misses () in
    f ();
    check (Alcotest.float 0.0) what 1.0 (misses () -. m0)
  in
  (* a forced schema no fp64 mapping admits: the search returns an error *)
  let mma = Cogent.Ctx.make ~schema:Tc_gpu.Schema.Pipelined_mma () in
  let failed () =
    match Cogent.Cache.find_or_generate_ctx cache mma problem with
    | Ok _ -> fail "pipelined-mma admits no fp64 mapping"
    | Error _ -> ()
  in
  counts_a_miss "a failed generation is a miss" failed;
  counts_a_miss "and a miss again when retried" failed;
  let crashing =
    Cogent.Ctx.make ~measure:(fun _ -> failwith "measure failed") ()
  in
  let raised () =
    match Cogent.Cache.find_or_generate_ctx cache crashing problem with
    | _ -> fail "expected the measure's exception"
    | exception Failure _ -> ()
  in
  counts_a_miss "a raising generation is a miss" raised;
  counts_a_miss "and a miss again when retried" raised

(* ---- wall clocks: time a domain spends asleep is counted ---- *)

let sleep_s = 0.01

let test_refine_is_wall_time () =
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 48); ('b', 48); ('c', 48) ]
  in
  let measure plan =
    Unix.sleepf sleep_s;
    Tc_sim.Simkernel.gflops plan
  in
  let refine = "cogent.driver.phase_wall_seconds.refine" in
  let refine0 = global_value refine in
  ignore (check_ok (Cogent.Driver.run (Cogent.Ctx.make ~measure ()) problem));
  check Alcotest.bool "the refine phase covers a sleep" true
    (global_value refine -. refine0 >= sleep_s)

let test_pool_busy_is_wall_time () =
  with_jobs 2 @@ fun () ->
  let busy0 = global_value "par.pool.busy_s" in
  let sleeps = List.init 4 (fun _ -> sleep_s) in
  ignore (Pool.map Unix.sleepf sleeps);
  check Alcotest.bool "busy_s covers the items' sleeps" true
    (global_value "par.pool.busy_s" -. busy0
    >= 0.9 *. List.fold_left ( +. ) 0.0 sleeps)

let test_autotune_deterministic_across_jobs () =
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ]
  in
  let params =
    { Tc_autotune.Genetic.default_params with population = 12; generations = 3 }
  in
  let run jobs =
    with_jobs jobs @@ fun () ->
    Tc_autotune.Genetic.tune ~params Tc_gpu.Arch.v100 Tc_gpu.Precision.FP32
      problem
  in
  let r1 = run 1 in
  let r4 = run 4 in
  check Alcotest.int "same evaluation count" r1.Tc_autotune.Genetic.evaluations
    r4.Tc_autotune.Genetic.evaluations;
  check (Alcotest.float 0.0) "same best gflops"
    r1.Tc_autotune.Genetic.best_gflops r4.Tc_autotune.Genetic.best_gflops;
  check Alcotest.int "same seed => same mapping" 0
    (Cogent.Mapping.compare r1.Tc_autotune.Genetic.best
       r4.Tc_autotune.Genetic.best);
  check Alcotest.bool "identical tuning trace" true
    (r1.Tc_autotune.Genetic.trace = r4.Tc_autotune.Genetic.trace)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_ordering;
          Alcotest.test_case "jobs=1 degrades to sequential" `Quick
            test_jobs1_is_sequential;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested maps do not deadlock" `Quick
            test_nested_map;
          Alcotest.test_case "fold_best reduces in index order" `Quick
            test_fold_best;
          Alcotest.test_case "map_fold reduces in index order" `Quick
            test_map_fold;
          Alcotest.test_case "trace spans cross domains" `Quick
            test_trace_propagation;
          Alcotest.test_case "request scope crosses domains" `Quick
            test_request_propagation;
          Gen.to_alcotest map_matches_sequential;
          Alcotest.test_case "busy_s is wall time" `Quick
            test_pool_busy_is_wall_time;
          Alcotest.test_case "refine phase is wall time" `Quick
            test_refine_is_wall_time;
        ] );
      ( "determinism",
        [
          Gen.to_alcotest driver_deterministic_across_jobs;
          Gen.to_alcotest histogram_exposition_jobs_invariant;
          Alcotest.test_case "autotuner jobs 1 vs 4" `Quick
            test_autotune_deterministic_across_jobs;
        ] );
      ( "cache",
        [
          Alcotest.test_case "racing domains share one plan" `Quick
            test_cache_race;
          Alcotest.test_case "errors are never cached" `Quick
            test_cache_errors_not_cached;
        ] );
    ]
