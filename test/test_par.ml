(* Tests for Tc_par.Pool: the determinism contract (order preservation,
   index-ordered reduction, jobs-independence of every pipeline output),
   exception transparency, re-entrancy, and trace propagation onto worker
   domains.  Property tests run under the shared fixed seed
   (Gen.to_alcotest), so failures are reproducible. *)

open Tc_par

let check = Alcotest.check
let fail = Alcotest.fail

(* A pool wide enough to actually exercise cross-domain scheduling even
   on a single-core host (domains timeshare), plus the degenerate one. *)
let with_pool jobs f =
  let p = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ---- map: order preservation and sequential degradation ---- *)

let test_map_ordering () =
  with_pool 4 @@ fun p ->
  let xs = List.init 100 Fun.id in
  let f x = (x * 37) mod 101 in
  check (Alcotest.list Alcotest.int) "map preserves input order" (List.map f xs)
    (Pool.map ~pool:p f xs);
  check (Alcotest.list Alcotest.int) "empty list" []
    (Pool.map ~pool:p (fun _ -> fail "called on empty input") [])

let test_jobs1_is_sequential () =
  with_pool 1 @@ fun p ->
  check Alcotest.int "clamped to 1" 1 (Pool.jobs p);
  (* the jobs=1 path must observe strictly left-to-right evaluation, like
     List.map — this would be flaky if a domain were involved *)
  let order = ref [] in
  let r =
    Pool.map ~pool:p
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
  with_pool 4 @@ fun p ->
  (match
     Pool.map ~pool:p
       (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
       [ 1; 2; 3; 4; 5; 6 ]
   with
  | _ -> fail "expected an exception"
  | exception Boom x ->
      check Alcotest.int "lowest-indexed failure is re-raised" 2 x);
  (* the pool survives a failing batch *)
  check (Alcotest.list Alcotest.int) "pool still works" [ 2; 4; 6 ]
    (Pool.map ~pool:p (fun x -> 2 * x) [ 1; 2; 3 ])

(* ---- re-entrancy: nested maps on the same pool must not deadlock ---- *)

let test_nested_map () =
  with_pool 2 @@ fun p ->
  let r =
    Pool.map ~pool:p
      (fun i ->
        Pool.map ~pool:p (fun j -> (10 * i) + j) [ 1; 2; 3 ]
        |> List.fold_left ( + ) 0)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  check (Alcotest.list Alcotest.int) "nested fan-out completes"
    (List.map (fun i -> (30 * i) + 6) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    r

(* ---- fold_best: index-ordered reduction, earliest tie wins ---- *)

let test_fold_best () =
  with_pool 4 @@ fun p ->
  check (Alcotest.option Alcotest.int) "argmax" (Some 9)
    (Pool.fold_best ~pool:p ~better:( > ) Fun.id [ 3; 9; 2; 7; 1 ]);
  check (Alcotest.option Alcotest.int) "empty input" None
    (Pool.fold_best ~pool:p ~better:( > ) Fun.id []);
  let r =
    Pool.fold_best ~pool:p
      ~better:(fun (_, a) (_, b) -> a > b)
      Fun.id
      [ (0, 5); (1, 9); (2, 9); (3, 9) ]
  in
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "strict better keeps the earliest tie" (Some (1, 9)) r

let test_map_fold () =
  with_pool 4 @@ fun p ->
  (* a non-commutative fold exposes any reduction-order difference *)
  let xs = List.init 50 Fun.id in
  let f x = string_of_int ((x * 13) mod 17) in
  check Alcotest.string "reduces in index order"
    (String.concat "," (List.map f xs))
    (Pool.map_fold ~pool:p ~map:f ~init:""
       ~fold:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
       xs);
  check Alcotest.int "empty input yields init" 42
    (Pool.map_fold ~pool:p ~map:Fun.id ~init:42 ~fold:( + ) [])

(* ---- trace propagation: spans from worker domains land in the
   caller's installed context (Domain.DLS ambient, re-installed by the
   pool around each item) ---- *)

let test_trace_propagation () =
  with_pool 4 @@ fun p ->
  let t = Tc_obs.Trace.make () in
  let squares =
    Tc_obs.Trace.with_installed t (fun () ->
        Pool.map ~pool:p
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
  with_pool 4 @@ fun p ->
  let t = Tc_obs.Trace.make () in
  Tc_obs.Trace.with_installed t (fun () ->
      Tc_obs.Trace.with_request ~id:"req-042" "serve.generate" (fun () ->
          ignore
            (Pool.map ~pool:p
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
      with_pool 4 (fun p4 ->
          with_pool 1 (fun p1 ->
              Pool.map ~pool:p4 f xs = expected
              && Pool.map ~pool:p1 f xs = expected)))

(* The pipeline-level determinism contract: generation (model ranking +
   measured refinement on the default pool) must select the same plan and
   produce the same ranked costs at any job count. *)

let driver_deterministic_across_jobs =
  QCheck.Test.make ~count:15
    ~name:"Driver.generate is bit-identical at jobs 1 vs 4" Gen.case_arbitrary
    (fun c ->
      let run jobs =
        Pool.set_default_jobs jobs;
        Cogent.Driver.run_exn
          (Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops ())
          c.Gen.problem
      in
      let r1 = run 1 in
      let r4 = run 4 in
      Pool.set_default_jobs 1;
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
        with_pool jobs (fun p ->
            let reg = Tc_obs.Metrics.create () in
            let h =
              Tc_obs.Metrics.histogram ~registry:reg
                ~buckets:[ 0.5; 1.0; 2.0; 4.0 ] "par.lat"
            in
            ignore
              (Pool.map ~pool:p (fun v -> Tc_obs.Metrics.observe h v) obs);
            let snap = Tc_obs.Metrics.snapshot reg in
            ( Tc_obs.Metrics.to_prometheus snap,
              List.concat_map Tc_obs.Metrics.quantile_summary snap ))
      in
      run 1 = run 4)

(* ---- plan-cache single-flight: racing domains must not duplicate a
   generation, and the latched callers must count as hits ---- *)

let test_cache_single_flight () =
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ]
  in
  let calls = Atomic.make 0 in
  let measure plan =
    Atomic.incr calls;
    Tc_sim.Simkernel.gflops plan
  in
  let ctx = Cogent.Ctx.make ~measure () in
  (* learn how many measure calls one generation costs, sequentially *)
  let warmup = Cogent.Cache.create () in
  (match Cogent.Cache.find_or_generate_ctx warmup ctx problem with
  | Ok _ -> ()
  | Error e -> fail (Cogent.Driver.error_to_string e));
  let per_generation = Atomic.get calls in
  check Alcotest.bool "generation measures candidates" true (per_generation > 0);
  (* four domains race on the same key on a fresh cache: whatever the
     interleaving, at most one generation may actually run *)
  Atomic.set calls 0;
  let cache = Cogent.Cache.create () in
  let results =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Cogent.Cache.find_or_generate_ctx cache ctx problem))
    |> List.map Domain.join
  in
  List.iter
    (function
      | Ok _ -> () | Error e -> fail (Cogent.Driver.error_to_string e))
    results;
  check Alcotest.int "exactly one generation's worth of measure calls"
    per_generation (Atomic.get calls);
  let s = Cogent.Cache.stats cache in
  check Alcotest.int "one miss: the generation that ran" 1
    s.Cogent.Cache.misses;
  check Alcotest.int "three latched callers count as hits" 3
    s.Cogent.Cache.hits;
  check Alcotest.int "one cached entry" 1 s.Cogent.Cache.entries;
  match results with
  | Ok first :: rest ->
      List.iter
        (function
          | Ok r ->
              check Alcotest.int "every caller gets the same plan" 0
                (Cogent.Mapping.compare
                   first.Cogent.Driver.plan.Cogent.Plan.mapping
                   r.Cogent.Driver.plan.Cogent.Plan.mapping)
          | Error _ -> assert false)
        rest
  | _ -> assert false

(* ---- wall clocks: time a domain spends asleep or blocked is counted ---- *)

let sleep_s = 0.01

let global_value name =
  Option.value ~default:0.0 (Tc_obs.Metrics.value Tc_obs.Metrics.global name)

let test_cache_wait_is_wall_time () =
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 48); ('b', 48); ('c', 48) ]
  in
  (* The generation's measure calls hold it until the main domain is
     about to claim the same key, then sleep: the main domain must block
     behind at least one sleep. *)
  let generating = Atomic.make false and claiming = Atomic.make false in
  let measure plan =
    Atomic.set generating true;
    while not (Atomic.get claiming) do Domain.cpu_relax () done;
    Unix.sleepf sleep_s;
    Tc_sim.Simkernel.gflops plan
  in
  let ctx = Cogent.Ctx.make ~measure () in
  let cache = Cogent.Cache.create () in
  let wait = "cogent.cache.wait_wall_seconds"
  and refine = "cogent.driver.phase_wall_seconds.refine" in
  let wait0 = global_value wait and refine0 = global_value refine in
  let owner =
    Domain.spawn (fun () -> Cogent.Cache.find_or_generate_ctx cache ctx problem)
  in
  while not (Atomic.get generating) do Domain.cpu_relax () done;
  Atomic.set claiming true;
  let waited = Cogent.Cache.find_or_generate_ctx cache ctx problem in
  List.iter
    (function Ok _ -> () | Error e -> fail (Cogent.Driver.error_to_string e))
    [ Domain.join owner; waited ];
  check Alcotest.int "the main domain waited" 1
    (Cogent.Cache.stats cache).Cogent.Cache.hits;
  check Alcotest.bool "the wait covers a sleep" true
    (global_value wait -. wait0 >= sleep_s);
  check Alcotest.bool "the refine phase covers a sleep" true
    (global_value refine -. refine0 >= sleep_s)

let test_pool_busy_is_wall_time () =
  with_pool 2 @@ fun p ->
  let busy0 = global_value "par.pool.busy_s" in
  let sleeps = List.init 4 (fun _ -> sleep_s) in
  ignore (Pool.map ~pool:p Unix.sleepf sleeps);
  check Alcotest.bool "busy_s covers the items' sleeps" true
    (global_value "par.pool.busy_s" -. busy0
    >= 0.9 *. List.fold_left ( +. ) 0.0 sleeps)

(* [Cache.stats] keeps [entries] as a running count instead of walking
   the table: after every way a slot changes it must still equal the
   number of completed slots, which [Cache.entries] lists. *)
let test_cache_stats_counts_ready () =
  let problem a =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', a); ('b', 64); ('c', 64) ]
  in
  let ctx = Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops () in
  let cache = Cogent.Cache.create () in
  let agree what expected =
    let ready = List.length (Cogent.Cache.entries cache) in
    check Alcotest.int (what ^ ": ready slots") expected ready;
    check Alcotest.int (what ^ ": stats entries") ready
      (Cogent.Cache.stats cache).Cogent.Cache.entries
  in
  let generate ctx p = ignore (Cogent.Cache.find_or_generate_ctx cache ctx p) in
  agree "empty" 0;
  let installed =
    match Cogent.Driver.run ctx (problem 8) with
    | Ok r -> r
    | Error e -> fail (Cogent.Driver.error_to_string e)
  in
  Cogent.Cache.install cache "installed" installed;
  Cogent.Cache.install cache "installed" installed;
  agree "install (twice, first wins)" 1;
  generate ctx (problem 16);
  generate ctx (problem 16);
  agree "one generation, one hit" 2;
  (* a forced schema no fp64 mapping admits: the search returns an error *)
  generate (Cogent.Ctx.make ~schema:Tc_gpu.Schema.Pipelined_mma ()) (problem 32);
  (* a measure that raises: the generation crashes *)
  (try generate (Cogent.Ctx.make ~measure:(fun _ -> failwith "boom") ())
         (problem 32)
   with Failure _ -> ());
  agree "failed generations remove their slot" 2;
  check Alcotest.int "both failures started a generation" 3
    (Cogent.Cache.stats cache).Cogent.Cache.misses;
  (* four domains race over the same three keys, in rotated orders *)
  let keys = [ problem 16; problem 128; problem 256 ] in
  List.init 4 (fun d ->
      Domain.spawn (fun () ->
          List.iteri
            (fun k _ -> generate ctx (List.nth keys ((k + d) mod 3)))
            keys))
  |> List.iter Domain.join;
  agree "racing domains" 4;
  Cogent.Cache.clear cache;
  agree "clear" 0;
  generate ctx (problem 16);
  agree "generation after clear" 1

let test_autotune_deterministic_across_jobs () =
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ]
  in
  let params =
    { Tc_autotune.Genetic.default_params with population = 12; generations = 3 }
  in
  let run jobs =
    Pool.set_default_jobs jobs;
    Tc_autotune.Genetic.tune ~params Tc_gpu.Arch.v100 Tc_gpu.Precision.FP32
      problem
  in
  let r1 = run 1 in
  let r4 = run 4 in
  Pool.set_default_jobs 1;
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
          Alcotest.test_case "single-flight generation under racing domains"
            `Quick test_cache_single_flight;
          Alcotest.test_case "stats entries count ready slots" `Quick
            test_cache_stats_counts_ready;
          Alcotest.test_case "a blocked waiter's wait is wall time" `Quick
            test_cache_wait_is_wall_time;
        ] );
    ]
