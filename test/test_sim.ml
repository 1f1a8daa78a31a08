open Tc_gpu
open Tc_expr
open Cogent
open Tc_sim

let check = Alcotest.check

let b idx tile = { Mapping.index = idx; tile }

let gemm_problem n k =
  Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', n); ('b', n); ('c', k) ]

let gemm_mapping =
  {
    Mapping.tbx = [ b 'a' 16 ];
    regx = [];
    tby = [ b 'b' 16 ];
    regy = [];
    tbk = [ b 'c' 8 ];
    grid = [];
  }

let plan ?(arch = Arch.v100) ?(prec = Precision.FP64) problem mapping =
  Result.get_ok (Plan.make ~problem ~mapping ~arch ~precision:prec)

let test_result_consistency () =
  let p = gemm_problem 512 512 in
  let r = Simkernel.run (plan p gemm_mapping) in
  check Alcotest.bool "positive time" true (r.Simkernel.time_s > 0.0);
  check (Alcotest.float 1e-3) "gflops = flops/time/1e9"
    (Problem.flops p /. r.Simkernel.time_s /. 1e9)
    r.Simkernel.gflops;
  check (Alcotest.float 1e-3) "bytes = 128 * transactions"
    (128.0 *. r.Simkernel.transactions)
    r.Simkernel.bytes;
  check Alcotest.bool "time >= both components" true
    (r.Simkernel.time_s >= r.Simkernel.mem_time_s
    && r.Simkernel.time_s >= r.Simkernel.compute_time_s)

let test_exact_vs_model_on_divisible () =
  (* With every extent divisible by its tile there are no boundary
     patterns; the exact count must agree with Algorithm 3 on the store
     side and stay close on the loads. *)
  let p = gemm_problem 256 64 in
  let exact = Simkernel.transactions_exact Precision.FP64 p gemm_mapping in
  let model = Cost.transactions Precision.FP64 p gemm_mapping in
  check (Alcotest.float 1.0) "store side identical" model.Cost.out
    exact.Cost.out;
  let close a bm = Float.abs (a -. bm) /. bm < 0.25 in
  check Alcotest.bool "lhs close to model" true (close exact.Cost.lhs model.Cost.lhs);
  check Alcotest.bool "rhs close to model" true (close exact.Cost.rhs model.Cost.rhs)

let test_exact_cheaper_on_boundary () =
  (* Boundary tiles: the model counts full tiles, the simulator counts
     in-range traffic, so exact <= model. *)
  let p = gemm_problem 250 60 in
  let exact = Simkernel.transactions_exact Precision.FP64 p gemm_mapping in
  let model = Cost.transactions Precision.FP64 p gemm_mapping in
  check Alcotest.bool "exact <= model on boundary problems" true
    (exact.Cost.lhs +. exact.Cost.rhs +. exact.Cost.out
    <= model.Cost.lhs +. model.Cost.rhs +. model.Cost.out)

let test_infeasible_config_zero () =
  (* 255 regs/thread forced by a huge register tile: occupancy invalid *)
  let p =
    Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:[ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]
  in
  let m =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [ b 'b' 16 ];
      tby = [ b 'd' 16 ];
      regy = [ b 'c' 16 ];
      tbk = [ b 'e' 8; b 'f' 1 ];
      grid = [];
    }
  in
  let r = Simkernel.run (plan p m) in
  check (Alcotest.float 0.0) "zero gflops" 0.0 r.Simkernel.gflops;
  check Alcotest.bool "infinite time" true (r.Simkernel.time_s = infinity)

let test_low_concurrency_penalty () =
  (* same config, tiny grid: one block cannot fill 80 SMs *)
  let small = gemm_problem 16 512 in
  let big = gemm_problem 1024 512 in
  let rs = Simkernel.run (plan small gemm_mapping) in
  let rb = Simkernel.run (plan big gemm_mapping) in
  check Alcotest.bool "one-block grid detected" true
    (rs.Simkernel.concurrency < 0.05);
  check Alcotest.bool "low concurrency hurts throughput" true
    (rs.Simkernel.gflops < rb.Simkernel.gflops /. 4.0)

let test_partial_warp_penalty () =
  let p = gemm_problem 512 64 in
  let narrow =
    {
      Mapping.tbx = [ b 'a' 4 ];
      regx = [];
      tby = [ b 'b' 4 ];
      regy = [];
      tbk = [ b 'c' 8 ];
      grid = [];
    }
  in
  let r16 = Simkernel.run (plan p narrow) in
  let r256 = Simkernel.run (plan p gemm_mapping) in
  check Alcotest.bool "16-thread blocks slower" true
    (r16.Simkernel.gflops < r256.Simkernel.gflops)

let test_register_tiling_helps_compute_bound () =
  let p =
    Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64); ('d', 64); ('e', 32); ('f', 32) ]
  in
  let flat =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [];
      tby = [ b 'd' 16 ];
      regy = [];
      tbk = [ b 'e' 8; b 'f' 1 ];
      grid = [ 'b'; 'c' ];
    }
  in
  let tiled =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [ b 'b' 4 ];
      tby = [ b 'd' 16 ];
      regy = [ b 'c' 4 ];
      tbk = [ b 'e' 8; b 'f' 1 ];
      grid = [];
    }
  in
  let rf = Simkernel.run (plan p flat) in
  let rt = Simkernel.run (plan p tiled) in
  check Alcotest.bool "register tiling wins" true
    (rt.Simkernel.gflops > rf.Simkernel.gflops)

let test_fp32_not_slower () =
  let p = gemm_problem 512 256 in
  let r64 = Simkernel.run (plan ~prec:Precision.FP64 p gemm_mapping) in
  let r32 = Simkernel.run (plan ~prec:Precision.FP32 p gemm_mapping) in
  check Alcotest.bool "fp32 >= fp64 throughput" true
    (r32.Simkernel.gflops >= r64.Simkernel.gflops)

let test_v100_faster_than_p100 () =
  let p = gemm_problem 512 256 in
  let rp = Simkernel.run (plan ~arch:Arch.p100 p gemm_mapping) in
  let rv = Simkernel.run (plan ~arch:Arch.v100 p gemm_mapping) in
  check Alcotest.bool "V100 faster" true
    (rv.Simkernel.gflops > rp.Simkernel.gflops)

let test_below_peak () =
  let p = gemm_problem 1024 512 in
  let r = Simkernel.run (plan p gemm_mapping) in
  check Alcotest.bool "below device peak" true
    (r.Simkernel.gflops < Arch.peak_gflops Arch.v100 Precision.FP64)

let test_l2_discounts_small_input_reloads () =
  (* an input of a few hundred KB reloaded by many blocks: with the L2
     model it must be cheaper than the raw count; a >L2-sized input must
     not be discounted *)
  let small = gemm_problem 512 64 in
  let raw = Simkernel.transactions_exact Precision.FP64 small gemm_mapping in
  let cached =
    Simkernel.transactions_exact ~arch:Arch.v100 Precision.FP64 small
      gemm_mapping
  in
  check Alcotest.bool "lhs reloads discounted" true
    (cached.Cost.lhs < raw.Cost.lhs);
  check (Alcotest.float 1e-6) "stores unchanged" raw.Cost.out cached.Cost.out;
  let huge = gemm_problem 4096 1024 in
  (* 4096*1024 doubles = 32 MB per input: beyond both devices' L2 *)
  let raw_h = Simkernel.transactions_exact Precision.FP64 huge gemm_mapping in
  let cached_h =
    Simkernel.transactions_exact ~arch:Arch.v100 Precision.FP64 huge
      gemm_mapping
  in
  check (Alcotest.float 1e-3) "no discount beyond L2" raw_h.Cost.lhs
    cached_h.Cost.lhs

let test_l2_never_below_cold_traffic () =
  let p = gemm_problem 256 64 in
  let cached =
    Simkernel.transactions_exact ~arch:Arch.v100 Precision.FP64 p gemm_mapping
  in
  let cold_lhs = float_of_int (256 * 64 * 8 / 128) in
  check Alcotest.bool "at least one cold pass" true
    (cached.Cost.lhs >= cold_lhs -. 1.0)

(* The largest problem a contraction admits (a 2^53 iteration space): its
   2^51 x 8-byte A is far beyond L2, so A gets no reload credit; the
   16-element B, reloaded by every block, keeps its own.  A (2^61 + 1) x 4
   A, whose 2^66 bytes would wrap native-int arithmetic, is refused. *)
let test_l2_hostile_extent () =
  check Alcotest.bool "2^65 iteration space refused" true
    (Result.is_error
       (Problem.of_string "ab-ac-cb"
          ~sizes:[ ('a', 2305843009213693953); ('b', 4); ('c', 4) ]));
  let p =
    Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 1 lsl 49); ('b', 4); ('c', 4) ]
  in
  let m = { gemm_mapping with Mapping.tby = [ b 'b' 4 ]; tbk = [ b 'c' 4 ] } in
  let raw = Simkernel.transactions_exact Precision.FP64 p m in
  let cached = Simkernel.transactions_exact ~arch:Arch.v100 Precision.FP64 p m in
  check (Alcotest.float 0.0) "A beyond L2" raw.Cost.lhs cached.Cost.lhs;
  check Alcotest.bool "B discounted" true (cached.Cost.rhs < raw.Cost.rhs)

(* A race counts the mapping's traffic once for all its lanes; every lane
   is still exactly its own plan's simulation. *)
let test_race_lanes_are_runs () =
  let p =
    plan ~arch:Arch.a100 ~prec:Precision.FP16 (gemm_problem 500 300)
      gemm_mapping
  in
  let race = Simkernel.race p in
  check Alcotest.int "every feasible schema raced"
    (List.length
       (Plan.feasible_schemas ~arch:Arch.a100 ~precision:Precision.FP16
          gemm_mapping))
    (List.length race.Simkernel.lanes);
  List.iter
    (fun (sc, r) ->
      check Alcotest.bool (Schema.to_string sc) true
        (r = Simkernel.run (Result.get_ok (Plan.with_schema sc p))))
    race.Simkernel.lanes

(* Every field of a simulation, floats by their bits. *)
let result_bits (r : Simkernel.result) =
  let d = r.Simkernel.detail in
  String.concat " "
    (Format.asprintf "%a" Simkernel.pp_bound r.Simkernel.bound
    :: List.map (Printf.sprintf "%h")
         [
           r.Simkernel.time_s; r.gflops; r.transactions; r.bytes; r.mem_time_s;
           r.compute_time_s; r.occupancy; r.concurrency; d.Simkernel.tx_lhs;
           d.tx_rhs; d.tx_out; d.mem_eff; d.comp_eff; d.warp_eff; d.ilp_eff;
           d.launch_s;
         ])

(* Pricing a mapping without a plan is the plan's simulation bit for bit:
   every TCCG entry's plan on every served target, under each feasible
   schema, at jittered own extents where the mapping fits. *)
let test_simulate_is_run () =
  let st = Random.State.make [| 0x5eed |] in
  let priced = ref 0 in
  List.iter
    (fun (arch, precision) ->
      let ctx = Ctx.make ~arch ~precision () in
      List.iter
        (fun e ->
          let rep = (Driver.run_exn ctx (Tc_tccg.Suite.problem e)).Driver.plan in
          let mapping = rep.Plan.mapping in
          List.iter
            (fun own ->
              match Plan.make ~problem:own ~mapping ~arch ~precision with
              | Error _ -> ()
              | Ok plan ->
                  List.iter
                    (fun schema ->
                      incr priced;
                      check Alcotest.string
                        (Printf.sprintf "%s %s/%s %s" e.Tc_tccg.Suite.name
                           arch.Arch.name
                           (Precision.to_string precision)
                           (Schema.to_string schema))
                        (result_bits
                           (Simkernel.run
                              (Result.get_ok (Plan.with_schema schema plan))))
                        (result_bits
                           (Simkernel.simulate ~arch ~precision ~schema own
                              mapping)))
                    (Plan.feasible_schemas ~arch ~precision mapping))
            (Gen.jittered ~n:4 st (Tc_tccg.Suite.problem e)))
        Tc_tccg.Suite.all)
    Gen.perf_targets;
  check Alcotest.bool "own extents priced" true (!priced > 500)

(* The schema race's tie rules, on lanes with hand-set times: the earlier
   of two equally fast pipelined lanes is the best pipelined one, and
   classic wins a tie against it. *)
let test_race_ties () =
  let r = Simkernel.run (plan (gemm_problem 512 512) gemm_mapping) in
  let lane sc t = (sc, { r with Simkernel.time_s = t }) in
  let decide lanes =
    let race = Simkernel.race_of_lanes lanes in
    ( Option.map fst race.Simkernel.pipelined,
      fst race.Simkernel.chosen )
  in
  let outcome = Alcotest.(pair (option string) string) in
  let names (p, c) =
    (Option.map Schema.to_string p, Schema.to_string c)
  in
  check outcome "all equal: classic wins, earlier pipelined is best"
    (Some "pipelined", "classic")
    (names
       (decide
          [
            lane Schema.Classic 1.0;
            lane Schema.Pipelined 1.0;
            lane Schema.Pipelined_mma 1.0;
          ]));
  check outcome "equal pipelined lanes beat classic: the earlier wins"
    (Some "pipelined", "pipelined")
    (names
       (decide
          [
            lane Schema.Classic 2.0;
            lane Schema.Pipelined 1.0;
            lane Schema.Pipelined_mma 1.0;
          ]));
  check outcome "strictly faster later lane wins"
    (Some "pipelined-mma", "pipelined-mma")
    (names
       (decide
          [
            lane Schema.Classic 2.0;
            lane Schema.Pipelined 1.5;
            lane Schema.Pipelined_mma 1.0;
          ]));
  check outcome "classic only" (None, "classic")
    (names (decide [ lane Schema.Classic 1.0 ]));
  match Simkernel.race_of_lanes [ lane Schema.Pipelined 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a race without a classic lane must be rejected"

let sim_finite_on_pruned_configs =
  QCheck.Test.make ~count:40
    ~name:"simulator finite and below peak on surviving configs"
    Gen.case_arbitrary (fun c ->
      let r = Driver.run_exn Ctx.default c.Gen.problem in
      List.for_all
        (fun plan ->
          let s = Simkernel.run plan in
          Float.is_finite s.Simkernel.gflops
          && s.Simkernel.gflops >= 0.0
          && s.Simkernel.gflops
             <= Arch.peak_gflops Arch.v100 Precision.FP64)
        (Gen.top_plans ~n:3 r))

let () =
  Alcotest.run "sim"
    [
      ( "simkernel",
        [
          Alcotest.test_case "result consistency" `Quick test_result_consistency;
          Alcotest.test_case "exact vs model, divisible tiles" `Quick
            test_exact_vs_model_on_divisible;
          Alcotest.test_case "exact <= model on boundaries" `Quick
            test_exact_cheaper_on_boundary;
          Alcotest.test_case "infeasible config scores zero" `Quick
            test_infeasible_config_zero;
          Alcotest.test_case "low-concurrency penalty" `Quick
            test_low_concurrency_penalty;
          Alcotest.test_case "partial-warp penalty" `Quick
            test_partial_warp_penalty;
          Alcotest.test_case "register tiling helps" `Quick
            test_register_tiling_helps_compute_bound;
          Alcotest.test_case "fp32 not slower" `Quick test_fp32_not_slower;
          Alcotest.test_case "V100 > P100" `Quick test_v100_faster_than_p100;
          Alcotest.test_case "below peak" `Quick test_below_peak;
          Alcotest.test_case "L2 discounts small-input reloads" `Quick
            test_l2_discounts_small_input_reloads;
          Alcotest.test_case "L2 never below cold traffic" `Quick
            test_l2_never_below_cold_traffic;
          Alcotest.test_case "L2 credit under a hostile extent" `Quick
            test_l2_hostile_extent;
          Alcotest.test_case "race lanes are the lanes' runs" `Quick
            test_race_lanes_are_runs;
          Alcotest.test_case "simulate is the plan's run at own extents" `Quick
            test_simulate_is_run;
          Alcotest.test_case "schema race tie rules" `Quick test_race_ties;
          Gen.to_alcotest sim_finite_on_pruned_configs;
        ] );
    ]
