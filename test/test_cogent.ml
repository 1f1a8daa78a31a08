open Tc_gpu
open Tc_expr
open Cogent

let check = Alcotest.check
let fail = Alcotest.fail

let eq1 =
  Problem.of_string_exn "abcd-aebf-dfce"
    ~sizes:[ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]

let gemm_like =
  Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 32); ('b', 32); ('c', 32) ]

let b idx tile = { Mapping.index = idx; tile }

let gemm_mapping =
  {
    Mapping.tbx = [ b 'a' 16 ];
    regx = [];
    tby = [ b 'b' 16 ];
    regy = [];
    tbk = [ b 'c' 8 ];
    grid = [];
  }

let eq1_mapping =
  {
    Mapping.tbx = [ b 'a' 16 ];
    regx = [ b 'b' 4 ];
    tby = [ b 'd' 16 ];
    regy = [ b 'c' 4 ];
    tbk = [ b 'e' 8; b 'f' 1 ];
    grid = [];
  }

(* ---- Mapping ---- *)

let test_mapping_sizes () =
  check Alcotest.int "tbx" 16 (Mapping.size_tbx eq1_mapping);
  check Alcotest.int "regx" 4 (Mapping.size_regx eq1_mapping);
  check Alcotest.int "tbk" 8 (Mapping.size_tbk eq1_mapping);
  check Alcotest.int "threads" 256 (Mapping.threads_per_block eq1_mapping);
  check Alcotest.int "smem elems = (TBx*REGx + TBy*REGy)*TBk"
    (((16 * 4) + (16 * 4)) * 8)
    (Mapping.smem_elems eq1_mapping);
  check Alcotest.int "reg elems = RX*RY + RX + RY" (16 + 4 + 4)
    (Mapping.reg_elems_per_thread eq1_mapping)

let test_mapping_tile_of () =
  check Alcotest.int "tbx index" 16 (Mapping.tile_of eq1_mapping 'a');
  check Alcotest.int "tbk index" 1 (Mapping.tile_of eq1_mapping 'f');
  let with_grid = { eq1_mapping with Mapping.regx = []; grid = [ 'b' ] } in
  check Alcotest.int "grid tile is 1" 1 (Mapping.tile_of with_grid 'b');
  match Mapping.tile_of eq1_mapping 'z' with
  | exception Not_found -> ()
  | _ -> fail "foreign index accepted"

let test_mapping_blocks_steps () =
  (* extents 48/tile 16 -> 3; 48/4 -> 12; steps: 32/8 * 32/1 *)
  check Alcotest.int "blocks" (3 * 12 * 12 * 3)
    (Mapping.num_blocks eq1 eq1_mapping);
  check Alcotest.int "steps" (4 * 32) (Mapping.num_steps eq1 eq1_mapping);
  (* ceil semantics on non-divisible extents *)
  let p =
    Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 33); ('b', 32); ('c', 9) ]
  in
  check Alcotest.int "ceil blocks" (3 * 2) (Mapping.num_blocks p gemm_mapping);
  check Alcotest.int "ceil steps" 2 (Mapping.num_steps p gemm_mapping)

let test_mapping_validate_ok () =
  (match Mapping.validate eq1 eq1_mapping with
  | Ok () -> ()
  | Error e -> fail e);
  match Mapping.validate gemm_like gemm_mapping with
  | Ok () -> ()
  | Error e -> fail e

let test_mapping_validate_rejects () =
  let expect_err m msg =
    match Mapping.validate eq1 m with
    | Error _ -> ()
    | Ok () -> fail msg
  in
  expect_err
    { eq1_mapping with Mapping.grid = [ 'b' ] }
    "external mapped twice accepted";
  expect_err
    { eq1_mapping with Mapping.regx = [] }
    "missing external accepted";
  expect_err
    { eq1_mapping with Mapping.tbk = [ b 'e' 8 ] }
    "missing internal accepted";
  expect_err
    {
      eq1_mapping with
      (* d is an rhs external; it may not sit on the X side *)
      Mapping.regx = [ b 'd' 4 ];
      tby = [ b 'b' 16 ];
      regy = [ b 'c' 4 ];
    }
    "wrong side accepted";
  expect_err
    { eq1_mapping with Mapping.tbx = [ b 'a' 64 ] }
    "tile above extent accepted";
  expect_err
    { eq1_mapping with Mapping.tbx = [ b 'a' 0 ] }
    "zero tile accepted"

let test_mapping_compare () =
  check Alcotest.bool "equal to itself" true
    (Mapping.equal eq1_mapping eq1_mapping);
  check Alcotest.bool "differs on tile" false
    (Mapping.equal eq1_mapping { eq1_mapping with Mapping.tbx = [ b 'a' 8 ] })

(* ---- Enumerate ---- *)

let test_pack_greedy_clamp () =
  (* extent 24 crosses target 16: clamped to 16/1 = 16 *)
  let bindings, reached =
    Enumerate.pack_greedy ~target:16 ~first:(Some ('a', 24)) ~candidates:[]
  in
  check Alcotest.bool "reached" true reached;
  check Alcotest.int "clamped tile" 16 (List.hd bindings).Mapping.tile

let test_pack_greedy_multi () =
  (* 2 * 4 = 8 exactly packs two indices *)
  let bindings, reached =
    Enumerate.pack_greedy ~target:8 ~first:None
      ~candidates:[ ('a', 2); ('b', 4) ]
  in
  check Alcotest.bool "reached" true reached;
  check Alcotest.int "two bindings" 2 (List.length bindings);
  check Alcotest.int "a full" 2 (List.nth bindings 0).Mapping.tile;
  check Alcotest.int "b full" 4 (List.nth bindings 1).Mapping.tile

let test_pack_greedy_non_divisible () =
  (* prev 6, target 16: crossing index clamped to 16/6 = 2 *)
  let bindings, reached =
    Enumerate.pack_greedy ~target:16 ~first:None
      ~candidates:[ ('a', 6); ('b', 30) ]
  in
  check Alcotest.bool "reached" true reached;
  check Alcotest.int "b clamped to 2" 2 (List.nth bindings 1).Mapping.tile

let test_pack_greedy_exhausted () =
  let bindings, reached =
    Enumerate.pack_greedy ~target:16 ~first:None ~candidates:[ ('a', 3) ]
  in
  check Alcotest.bool "not reached" false reached;
  check Alcotest.int "fully packed" 3 (List.hd bindings).Mapping.tile

let test_enumerate_eq1_nonempty () =
  let configs = Oracle.candidates eq1 in
  check Alcotest.bool "nonempty" true (configs <> []);
  List.iter
    (fun m ->
      (match Mapping.validate eq1 m with
      | Ok () -> ()
      | Error e -> fail (Format.asprintf "invalid enumerated config %a: %s" Mapping.pp m e));
      match m.Mapping.tbx with
      | { Mapping.index = 'a'; _ } :: _ -> ()
      | _ -> fail "tbx head is not the output FVI")
    configs

let test_enumerate_dedup () =
  let configs = Oracle.candidates eq1 in
  let module MSet = Set.Make (struct
    type t = Mapping.t

    let compare = Mapping.compare
  end) in
  check Alcotest.int "no duplicates"
    (List.length configs)
    (MSet.cardinal (MSet.of_list configs))

let test_enumerate_tiny_fallback () =
  (* all extents 2: targets unreachable, fallback keeps exhausted packs *)
  let p = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 2); ('b', 2); ('c', 2) ] in
  check Alcotest.bool "nonempty" true (Candidates.count (Candidates.create p) > 0)

let test_naive_space_eq1 () =
  (* §IV: 3,981,312 configurations for Eq. 1 *)
  check (Alcotest.float 0.5) "paper's number" 3_981_312.0
    (Enumerate.naive_space_size eq1)

let enumerate_all_valid =
  QCheck.Test.make ~count:60 ~name:"every enumerated config validates"
    Gen.case_arbitrary (fun c ->
      let configs = Oracle.candidates c.Gen.problem in
      configs <> []
      && List.for_all
           (fun m -> Mapping.validate c.Gen.problem m = Ok ())
           configs)

(* ---- Candidates (streaming producer) ---- *)

let mapping_list = Alcotest.(list (testable Mapping.pp Mapping.equal))

let test_candidates_eq1_stream () =
  let cands = Candidates.create eq1 in
  let legacy = Oracle.enumerate eq1 in
  check Alcotest.int "count matches enumeration" (List.length legacy)
    (Candidates.count cands);
  check mapping_list "stream equals materialized enumeration" legacy
    (Oracle.candidates eq1)

let candidates_match_enumerate =
  QCheck.Test.make ~count:60
    ~name:"candidate stream equals materialized enumeration"
    Gen.case_arbitrary (fun c ->
      let cands = Candidates.create c.Gen.problem in
      let legacy = Oracle.enumerate c.Gen.problem in
      Candidates.count cands = List.length legacy
      && List.equal Mapping.equal (Oracle.candidates c.Gen.problem) legacy)

(* ---- Golden files ---- *)

let golden_path file =
  (* dune materializes the golden files next to the test executable; fall
     back to the source path when run from the repository root.  A
     GOLDEN_UPDATE run from the repository root writes the source tree,
     never the build copy. *)
  let beside_exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat "golden" file)
  in
  if Sys.getenv_opt "GOLDEN_UPDATE" <> None && Sys.file_exists "test/golden"
  then Filename.concat "test/golden" file
  else if Sys.file_exists beside_exe then beside_exe
  else if Sys.file_exists (Filename.concat "golden" file) then
    Filename.concat "golden" file
  else Filename.concat "test/golden" file

let read_golden file =
  let ic = open_in (golden_path file) in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* With GOLDEN_UPDATE set, rewrite the golden files from the plan this test
   constructs instead of comparing (run `GOLDEN_UPDATE=1 dune exec
   test/test_cogent.exe` from the repository root, then eyeball the diff). *)
let check_golden label file actual =
  if Sys.getenv_opt "GOLDEN_UPDATE" <> None then begin
    let oc = open_out (golden_path file) in
    output_string oc actual;
    close_out oc
  end;
  check Alcotest.string label (read_golden file) actual

(* ---- Streaming pipeline vs the materialized oracle ---- *)

let ranked_equal a b =
  List.equal
    (fun (m, c) (m', c') -> Mapping.equal m m' && Float.equal c c')
    a b

let test_pipeline_eq1 () =
  let arch = Arch.v100 and prec = Precision.FP64 in
  let topk = 8 in
  let legacy_ranked, legacy_stats, _ = Oracle.search ~topk arch prec eq1 in
  let o = Pipeline.search ~topk arch prec eq1 in
  check Alcotest.bool "stats equal" true (o.Pipeline.stats = legacy_stats);
  check Alcotest.bool "top-8 equal" true
    (ranked_equal o.Pipeline.ranked legacy_ranked);
  check Alcotest.bool "not degraded" false o.Pipeline.degraded

let test_pipeline_bound_aborts () =
  let o = Pipeline.search ~topk:8 Arch.v100 Precision.FP64 eq1 in
  (* Every prune survivor is either bound-aborted or made it into a chunk
     heap (evictions are neither), so the two tallies stay disjoint. *)
  check Alcotest.bool "aborts bounded by survivors" true
    (o.Pipeline.bound_aborted + List.length o.Pipeline.ranked
    <= o.Pipeline.stats.Prune.kept);
  (* Eq. 1 keeps ~1000 survivors for a heap of 8: the cost bound must be
     doing real work. *)
  check Alcotest.bool "bound aborts happen" true (o.Pipeline.bound_aborted > 0)

(* The four targets of the benchmark suite: the rules inline the
   occupancy arithmetic and the precision byte widths, so every device and
   precision pair must agree with the materialized phases. *)
let bench_targets =
  [
    (Arch.p100, Precision.FP64);
    (Arch.v100, Precision.FP64);
    (Arch.v100, Precision.FP32);
    (Arch.a100, Precision.FP16);
  ]

(* Gen extents (1..6) never come near the SMEM, register or occupancy
   limits, so the byte widths only show on real sizes: every TCCG suite
   entry on every target, with and without the performance rules, at the
   driver's K = 8 and at K = max_int, which must keep the oracle's full
   ranking without a single bound abort. *)
let test_pipeline_suite_targets () =
  List.iter
    (fun entry ->
      let problem = Tc_tccg.Suite.problem entry in
      List.iter
        (fun (arch, prec) ->
          List.iter
            (fun performance ->
              let full, stats, _ =
                Oracle.search ~performance ~topk:max_int arch prec problem
              in
              List.iter
                (fun topk ->
                  let o = Pipeline.search ~performance ~topk arch prec problem in
                  let what =
                    Printf.sprintf "%s %s/%s performance:%b topk:%d"
                      entry.Tc_tccg.Suite.name arch.Arch.name
                      (Precision.to_string prec) performance topk
                  in
                  check Alcotest.bool (what ^ " stats") true
                    (o.Pipeline.stats = stats);
                  check Alcotest.bool (what ^ " ranked") true
                    (ranked_equal o.Pipeline.ranked
                       (List.filteri (fun k _ -> k < topk) full));
                  if topk = max_int then
                    check Alcotest.int (what ^ " bound aborts") 0
                      o.Pipeline.bound_aborted)
                [ 8; max_int ])
            [ true; false ])
        bench_targets)
    Tc_tccg.Suite.all

(* The search outcome itself, pinned bit-exactly: every TCCG entry on
   every benchmark target, with and without the performance rules, at the
   driver's K = 8.  One line per case: enumerated, kept and bound_aborted,
   then the top-8 mappings with their costs in %h. *)
let test_pipeline_suite_golden () =
  let buf = Buffer.create 131072 in
  List.iter
    (fun entry ->
      let problem = Tc_tccg.Suite.problem entry in
      List.iter
        (fun (arch, prec) ->
          List.iter
            (fun performance ->
              let o = Pipeline.search ~performance ~topk:8 arch prec problem in
              Printf.bprintf buf "%s %s/%s performance:%b %d %d %d"
                entry.Tc_tccg.Suite.name arch.Arch.name
                (Precision.to_string prec) performance
                o.Pipeline.stats.Prune.enumerated o.Pipeline.stats.Prune.kept
                o.Pipeline.bound_aborted;
              List.iter
                (fun (m, cost) ->
                  Buffer.add_string buf
                    (Format.asprintf " | %a %h" Mapping.pp m cost))
                o.Pipeline.ranked;
              Buffer.add_char buf '\n')
            [ true; false ])
        bench_targets)
    Tc_tccg.Suite.all;
  check_golden "suite search outcomes" "pipeline_suite.txt"
    (Buffer.contents buf)

(* Odd extents from {3..23} drawn per (entry, target) as the verify
   benchmark draws them, then the largest is shrunk by 2 until the problem
   has at most 20000 points. *)
let verify_sizes (entry : Tc_tccg.Suite.entry) ti =
  let rng = Random.State.make [| 0; 7; entry.Tc_tccg.Suite.id; ti |] in
  let sizes =
    Array.of_list
      (List.map
         (fun (i, _) -> (i, 3 + (2 * Random.State.int rng 11)))
         entry.Tc_tccg.Suite.sizes)
  in
  let product () = Array.fold_left (fun acc (_, n) -> acc * n) 1 sizes in
  while product () > 20_000 do
    let big = ref 0 in
    Array.iteri (fun k (_, n) -> if n > snd sizes.(!big) then big := k) sizes;
    let i, n = sizes.(!big) in
    sizes.(!big) <- (i, n - 2)
  done;
  Array.to_list sizes

(* The simulator pinned bit-exactly suite-wide: for every TCCG entry on
   every benchmark target, the measured driver's top-8 ranked mappings
   with their boundary-exact transactions (without and with the L2
   discount) and the simulated time and GFLOPS under every feasible
   schema; then the interpreter's transaction counters for the plan the
   driver selects at verify-style odd extents.  Every float in %h. *)
let test_sim_suite_golden () =
  let module Sim = Tc_sim.Simkernel in
  let buf = Buffer.create 262144 in
  let tx (t : Cost.breakdown) =
    Printf.bprintf buf " %h %h %h" t.Cost.lhs t.Cost.rhs t.Cost.out
  in
  List.iter
    (fun entry ->
      let problem = Tc_tccg.Suite.problem entry in
      List.iteri
        (fun ti (arch, precision) ->
          let ctx = Ctx.make ~arch ~precision ~measure:Sim.gflops () in
          let target =
            Printf.sprintf "%s %s/%s" entry.Tc_tccg.Suite.name arch.Arch.name
              (Precision.to_string precision)
          in
          let d = Driver.run_exn ctx problem in
          List.iter
            (fun (m, _) ->
              Printf.bprintf buf "%s %s tx" target
                (Format.asprintf "%a" Mapping.pp m);
              tx (Sim.transactions_exact precision problem m);
              Buffer.add_string buf " l2";
              tx (Sim.transactions_exact ~arch precision problem m);
              let plan = Plan.make ~problem ~mapping:m ~arch ~precision in
              List.iter
                (fun sc ->
                  let r = Sim.run (Plan.with_schema sc plan) in
                  Printf.bprintf buf " | %s %h %h" (Schema.to_string sc)
                    r.Sim.time_s r.Sim.gflops)
                (Plan.feasible_schemas ~arch ~precision m);
              Buffer.add_char buf '\n')
            (List.filteri (fun k _ -> k < 8) d.Driver.ranked);
          let sizes = verify_sizes entry ti in
          let odd =
            Problem.of_string_exn entry.Tc_tccg.Suite.expr ~sizes
          in
          let plan = (Driver.run_exn ctx odd).Driver.plan in
          let c = Interp.measure plan in
          Printf.bprintf buf "%s odd %s %s %s measured %h %h %h %h\n" target
            (String.concat ","
               (List.map (fun (i, n) -> Printf.sprintf "%c=%d" i n) sizes))
            (Schema.to_string plan.Plan.schema)
            (Format.asprintf "%a" Mapping.pp plan.Plan.mapping)
            c.Interp.tx_lhs c.Interp.tx_rhs c.Interp.tx_out
            c.Interp.store_tx_block_max)
        bench_targets)
    Tc_tccg.Suite.all;
  check_golden "suite simulator outputs" "sim_suite.txt" (Buffer.contents buf)

let streamed_matches_legacy ?budget () =
  QCheck.Test.make ~count:40
    ~name:
      (match budget with
      | None -> "streamed pipeline == materialized phases (jobs 1 and 4)"
      | Some b -> Printf.sprintf "streamed pipeline == budget-%d path" b)
    Gen.case_arbitrary (fun c ->
      let problem = c.Gen.problem in
      let topk = 8 in
      let agrees (arch, prec) performance =
        let legacy_ranked, legacy_stats, legacy_degraded =
          Oracle.search ~performance ?budget ~topk arch prec problem
        in
        let at_jobs jobs =
          Tc_par.Pool.set_default_jobs jobs;
          let o = Pipeline.search ~performance ?budget ~topk arch prec problem in
          o.Pipeline.stats = legacy_stats
          && o.Pipeline.degraded = legacy_degraded
          && ranked_equal o.Pipeline.ranked legacy_ranked
        in
        at_jobs 1 && at_jobs 4
      in
      let ok =
        List.for_all
          (fun target -> agrees target true && agrees target false)
          bench_targets
      in
      Tc_par.Pool.set_default_jobs 1;
      ok)

(* ---- Prune ---- *)

let verdict_matches_occupancy =
  QCheck.Test.make ~count:5000
    ~name:"int rule verdict == Occupancy.calculate verdict"
    Gen.rule_case_arbitrary (fun c ->
      let occ, expected = Gen.verdict_ref c in
      let checker =
        Prune.checker_of_classes c.Gen.r_classes c.Gen.r_arch Precision.FP64
          c.Gen.r_problem
      in
      let got =
        Prune.verdict checker ~threads:c.Gen.r_threads ~smem:c.Gen.r_smem
          ~regs:c.Gen.r_regs ~blocks:c.Gen.r_blocks ~out_tile:c.Gen.r_out_tile
          ~lhs_tile:c.Gen.r_lhs_tile ~rhs_tile:c.Gen.r_rhs_tile
      in
      (* The generator must reach the region it claims: zero-fit requests
         are valid (limiter not Invalid) yet occupy nothing. *)
      let reached =
        match c.Gen.r_kind with
        | Gen.Any_request -> true
        | Gen.Valid_request -> occ.Occupancy.limiter <> Occupancy.Invalid
        | Gen.Invalid_request ->
            occ.Occupancy.limiter = Occupancy.Invalid
        | Gen.Zero_fit_request ->
            occ.Occupancy.limiter <> Occupancy.Invalid
            && occ.Occupancy.active_blocks_per_sm = 0
            && occ.Occupancy.occupancy = 0.0
      in
      reached
      &&
      match expected with
      | None -> got = -1
      | Some r -> got >= 0 && Prune.reason_of_index got = r)

let test_prune_reason_codes () =
  List.iteri
    (fun k r ->
      check Alcotest.int (Prune.reason_slug r) k (Prune.reason_index r);
      check Alcotest.string "inverse" (Prune.reason_slug r)
        (Prune.reason_slug (Prune.reason_of_index k)))
    Prune.all_reasons;
  check Alcotest.int "num_reasons" (List.length Prune.all_reasons)
    Prune.num_reasons

let test_prune_smem_overflow () =
  (* (16*8 + 16*8) * 32 * 8B = 64 KB > 48 KB *)
  let p =
    Problem.of_string_exn "ab-acd-dcb"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64); ('d', 64) ]
  in
  let m =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [];
      tby = [ b 'b' 16 ];
      regy = [];
      tbk = [ b 'c' 32; b 'd' 8 ];
      grid = [];
    }
  in
  check Alcotest.int "smem bytes" (((16 * 1) + (16 * 1)) * 256 * 8)
    (Prune.smem_bytes Precision.FP64 m);
  match Prune.check (Prune.checker Arch.v100 Precision.FP64 p) m with
  | Error Prune.Smem_overflow -> ()
  | Error r -> fail (Prune.reason_to_string r)
  | Ok () -> fail "smem overflow accepted"

let test_prune_too_many_threads () =
  let p =
    Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ]
  in
  let m =
    {
      Mapping.tbx = [ b 'a' 64 ];
      regx = [];
      tby = [ b 'b' 64 ];
      regy = [];
      tbk = [ b 'c' 1 ];
      grid = [];
    }
  in
  match Prune.check (Prune.checker Arch.v100 Precision.FP64 p) m with
  | Error Prune.Too_many_threads -> ()
  | _ -> fail "4096 threads accepted"

let test_prune_uncoalesced () =
  (* tiny tile on the output FVI breaks store coalescing *)
  let m = { eq1_mapping with Mapping.tbx = [ b 'a' 2 ]; regx = [ b 'b' 8 ] } in
  match Prune.check (Prune.checker Arch.v100 Precision.FP64 eq1) m with
  | Error Prune.Uncoalesced_out -> ()
  | Error r -> fail (Prune.reason_to_string r)
  | Ok () -> fail "uncoalesced store accepted"

let test_prune_regs_fp32_cheaper () =
  check Alcotest.bool "fp32 needs fewer registers" true
    (Prune.regs_per_thread Precision.FP32 eq1_mapping
    < Prune.regs_per_thread Precision.FP64 eq1_mapping)

(* Every survivor of a search, ranked: a heap as large as the space. *)
let survivors problem = Pipeline.search ~topk:max_int Arch.v100 Precision.FP64 problem

let test_prune_filter_stats () =
  let o = survivors eq1 in
  let stats = o.Pipeline.stats in
  check Alcotest.int "enumerated"
    (Candidates.count (Candidates.create eq1))
    stats.Prune.enumerated;
  check Alcotest.int "kept" (List.length o.Pipeline.ranked) stats.Prune.kept;
  check Alcotest.bool "something pruned" true (stats.Prune.kept < stats.Prune.enumerated);
  check Alcotest.bool "not relaxed" false stats.Prune.relaxed;
  let checker = Prune.checker Arch.v100 Precision.FP64 eq1 in
  List.iter
    (fun (m, _) ->
      match Prune.check checker m with
      | Ok () -> ()
      | Error r -> fail (Prune.reason_to_string r))
    o.Pipeline.ranked

let test_prune_relaxation () =
  (* a tiny contraction cannot satisfy the block-count constraint, but
     the search must still keep something, flagged as relaxed *)
  let p = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 4); ('b', 4); ('c', 4) ] in
  let o = survivors p in
  check Alcotest.bool "kept nonempty" true (o.Pipeline.ranked <> []);
  check Alcotest.bool "relaxed" true o.Pipeline.stats.Prune.relaxed

(* ---- Cost ---- *)

let test_cost_contiguous_run () =
  (* a fully tiled (16 = extent? no, 48) stops the run at its tile *)
  check Alcotest.int "partial tile stops run" 16
    (Cost.contiguous_run eq1 eq1_mapping [ 'a'; 'e'; 'b'; 'f' ]);
  (* full coverage chains into the next index *)
  let p = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 16); ('b', 16); ('c', 4) ] in
  let m =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [];
      tby = [ b 'b' 4 ];
      regy = [];
      tbk = [ b 'c' 4 ];
      grid = [];
    }
  in
  check Alcotest.int "chained run 16*4" (16 * 4)
    (Cost.contiguous_run p m [ 'a'; 'c' ])

let test_cost_store_run () =
  (* store run only extends over TBx-mapped indices *)
  check Alcotest.int "stops at regx index" 16 (Cost.store_run eq1 eq1_mapping)

let test_cost_breakdown_total () =
  let bd = Cost.transactions Precision.FP64 eq1 eq1_mapping in
  check (Alcotest.float 1e-6) "total = lhs+rhs+out"
    (bd.Cost.lhs +. bd.Cost.rhs +. bd.Cost.out)
    (Cost.total Precision.FP64 eq1 eq1_mapping);
  check Alcotest.bool "all positive" true
    (bd.Cost.lhs > 0.0 && bd.Cost.rhs > 0.0 && bd.Cost.out > 0.0)

let test_cost_prefers_coalesced_store () =
  (* Same structure, but a 2-wide tile on the output FVI: more store
     transactions. *)
  let bad = { eq1_mapping with Mapping.tbx = [ b 'a' 2 ]; regx = [ b 'b' 8 ] } in
  let good = Cost.transactions Precision.FP64 eq1 eq1_mapping in
  let worse = Cost.transactions Precision.FP64 eq1 bad in
  check Alcotest.bool "uncoalesced store costs more" true
    (worse.Cost.out > good.Cost.out)

let test_cost_fp32_fewer_transactions () =
  (* With runs longer than 16 elements, FP32 packs twice as many elements
     per 128-byte transaction. *)
  let p = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 16); ('b', 16); ('c', 4) ] in
  let m =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [];
      tby = [ b 'b' 4 ];
      regy = [];
      tbk = [ b 'c' 4 ];
      grid = [];
    }
  in
  check Alcotest.bool "fp32 strictly cheaper on 64-element runs" true
    (Cost.total Precision.FP32 p m < Cost.total Precision.FP64 p m);
  (* and never more expensive in general *)
  check Alcotest.bool "fp32 <= fp64 on Eq. 1" true
    (Cost.total Precision.FP32 eq1 eq1_mapping
    <= Cost.total Precision.FP64 eq1 eq1_mapping)

let test_cost_rank_sorted () =
  let ranked = (survivors eq1).Pipeline.ranked in
  let rec sorted = function
    | (_, c1) :: ((_, c2) :: _ as rest) -> c1 <= c2 && sorted rest
    | _ -> true
  in
  check Alcotest.bool "ascending" true (sorted ranked)

let test_cost_foreign_block_scaling () =
  (* doubling an external absent from A doubles how often A's slabs are
     reloaded, hence its load transactions *)
  let mk c_extent =
    Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 64); ('b', c_extent); ('c', 32) ]
  in
  let t n =
    (Cost.transactions Precision.FP64 (mk n) gemm_mapping).Cost.lhs
  in
  check (Alcotest.float 1e-6) "2x b -> 2x lhs transactions" (2.0 *. t 64)
    (t 128)

let test_cost_bytes_moved () =
  check (Alcotest.float 1e-6) "bytes = 128 * transactions"
    (128.0 *. Cost.total Precision.FP64 eq1 eq1_mapping)
    (Cost.bytes_moved Precision.FP64 eq1 eq1_mapping)

let enumerate_tbk_covers_internals =
  QCheck.Test.make ~count:60 ~name:"tbk holds every internal exactly once"
    Gen.case_arbitrary (fun c ->
      let info = Problem.info c.Gen.problem in
      List.for_all
        (fun m ->
          let tbk = List.map (fun bd -> bd.Mapping.index) m.Mapping.tbk in
          List.sort Char.compare tbk
          = List.sort Char.compare info.Tc_expr.Classify.internals)
        (Oracle.candidates c.Gen.problem))

let codegen_deterministic =
  QCheck.Test.make ~count:30 ~name:"emission is deterministic"
    Gen.case_arbitrary (fun c ->
      let plan = Gen.plan_of Ctx.default c.Gen.problem in
      String.equal (Codegen.emit plan) (Codegen.emit plan)
      && String.equal
           (Codegen.emit ~dialect:Codegen.Opencl plan)
           (Codegen.emit ~dialect:Codegen.Opencl plan))

(* ---- Plan ---- *)

let test_plan_derived () =
  let plan =
    Plan.make ~problem:eq1 ~mapping:eq1_mapping ~arch:Arch.v100
      ~precision:Precision.FP64
  in
  check Alcotest.int "threads" 256 (Plan.threads_per_block plan);
  check Alcotest.int "smem" (128 * 8 * 8) (Plan.smem_bytes plan);
  check Alcotest.int "blocks" (Mapping.num_blocks eq1 eq1_mapping)
    (Plan.num_blocks plan);
  check (Alcotest.float 1e-9) "flops" (Problem.flops eq1) (Plan.flops plan);
  check Alcotest.bool "occupancy positive" true
    ((Plan.occupancy plan).Tc_gpu.Occupancy.occupancy > 0.0)

let test_plan_rejects_invalid () =
  match
    Plan.make ~problem:eq1
      ~mapping:{ eq1_mapping with Mapping.tbk = [] }
      ~arch:Arch.v100 ~precision:Precision.FP64
  with
  | exception Invalid_argument _ -> ()
  | _ -> fail "invalid mapping accepted"

(* ---- Kernel schemas ---- *)

(* Double-buffered SMEM accounting at the exact device boundary: 32x32
   threads staging a 48-deep K-slab use 2 x 1536 doubles = 24 KiB under
   the classic schema; doubling the slabs lands exactly on the A100's
   48 KiB/block budget (still feasible), while one K-step deeper (50)
   overflows only under the pipelined schema. *)
let test_schema_smem_boundary () =
  let mapping depth =
    {
      Mapping.tbx = [ b 'a' 32 ];
      regx = [];
      tby = [ b 'b' 32 ];
      regy = [];
      tbk = [ b 'c' depth ];
      grid = [];
    }
  in
  let plan extent depth =
    Plan.make
      ~problem:
        (Problem.of_string_exn "ab-ac-cb"
           ~sizes:[ ('a', 64); ('b', 64); ('c', extent) ])
      ~mapping:(mapping depth) ~arch:Arch.a100 ~precision:Precision.FP64
  in
  let at = plan 96 48 in
  check Alcotest.int "classic smem" 24576 (Plan.smem_bytes at);
  let piped = Plan.with_schema Schema.Pipelined at in
  check Alcotest.int "pipelined smem doubles" 49152 (Plan.smem_bytes piped);
  check Alcotest.bool "2x slabs exactly fill the block budget" true
    (Plan.smem_bytes piped = Arch.a100.Arch.smem_per_block);
  let over = plan 100 50 in
  check Alcotest.bool "classic still fits one step deeper" true
    (Plan.smem_bytes over <= Arch.a100.Arch.smem_per_block);
  check Alcotest.bool "doubled slabs rejected one step deeper" false
    (Plan.schema_feasible ~arch:Arch.a100 ~precision:Precision.FP64
       ~mapping:(mapping 50) Schema.Pipelined);
  match Plan.with_schema Schema.Pipelined over with
  | exception Invalid_argument _ -> ()
  | _ -> fail "double-buffered slabs above the SMEM budget accepted"

let test_schema_feasibility () =
  check Alcotest.bool "no async copies: classic only" true
    (Plan.feasible_schemas ~arch:Arch.v100 ~precision:Precision.FP64
       gemm_mapping
    = [ Schema.Classic ]);
  check Alcotest.bool "fp64 never runs on tensor cores" false
    (Plan.schema_feasible ~arch:Arch.a100 ~precision:Precision.FP64
       ~mapping:gemm_mapping Schema.Pipelined_mma);
  (* the 16x16x8 macro-tile divides the fp16 16x16x16 fragment layout *)
  check Alcotest.bool "fp16 macro-tile admits MMA" true
    (Plan.schema_feasible ~arch:Arch.a100 ~precision:Precision.FP16
       ~mapping:gemm_mapping Schema.Pipelined_mma)

(* A forced schema no mapping admits is a typed driver error (the CLI
   prints it and exits 1), never an exception. *)
let test_schema_forced_infeasible () =
  let ctx =
    Ctx.make ~arch:Arch.a100 ~precision:Precision.FP64
      ~schema:Schema.Pipelined_mma ()
  in
  (match Driver.run ctx gemm_like with
  | Error (Driver.Infeasible_schema (Schema.Pipelined_mma, _)) -> ()
  | Error e -> fail ("unexpected error: " ^ Driver.error_to_string e)
  | Ok _ -> fail "MMA accepted for fp64");
  match Driver.run_exn ctx gemm_like with
  | exception Invalid_argument m ->
      check Alcotest.bool "error names its raiser" true
        (String.starts_with ~prefix:"Driver.run_exn: " m)
  | _ -> fail "MMA accepted for fp64"

(* ---- Codegen ---- *)

let gemm_plan =
  Plan.make ~problem:gemm_like ~mapping:gemm_mapping ~arch:Arch.v100
    ~precision:Precision.FP64

let test_codegen_golden () =
  check_golden "golden kernel" "ab_ac_cb.cu" (Codegen.emit gemm_plan)

let test_codegen_golden_opencl () =
  check_golden "golden OpenCL kernel" "ab_ac_cb.cl"
    (Codegen.emit ~dialect:Codegen.Opencl gemm_plan)

let test_codegen_golden_c () =
  check_golden "golden C-host kernel" "ab_ac_cb.c"
    (Codegen.emit ~dialect:Codegen.C_host gemm_plan)

(* The same plan under the double-buffered schema, on a device with async
   copies.  The golden files lock the cp.async prologue and the two-slab
   rotation in all three dialects. *)
let pipelined_plan =
  Plan.with_schema Schema.Pipelined
    (Plan.make ~problem:gemm_like ~mapping:gemm_mapping ~arch:Arch.a100
       ~precision:Precision.FP64)

let test_codegen_golden_pipelined () =
  check_golden "golden pipelined kernel" "ab_ac_cb_pipelined.cu"
    (Codegen.emit pipelined_plan)

let test_codegen_golden_pipelined_opencl () =
  check_golden "golden pipelined OpenCL kernel" "ab_ac_cb_pipelined.cl"
    (Codegen.emit ~dialect:Codegen.Opencl pipelined_plan)

let test_codegen_golden_pipelined_c () =
  check_golden "golden pipelined C-host kernel" "ab_ac_cb_pipelined.c"
    (Codegen.emit ~dialect:Codegen.C_host pipelined_plan)

(* The tensor-core schema at half precision: the golden that locks the
   [half] scalar type, the fp16 [0.0f] zero and the MMA compute comment. *)
let mma_plan =
  Plan.with_schema Schema.Pipelined_mma
    (Plan.make ~problem:gemm_like ~mapping:gemm_mapping ~arch:Arch.a100
       ~precision:Precision.FP16)

let test_codegen_golden_mma () =
  check_golden "golden MMA kernel" "ab_ac_cb_mma.cu" (Codegen.emit mma_plan)

(* Every TCCG entry's model-selected kernel in every emitted form, on an
   fp64 and a half-precision target, locked by digest — one line per
   (entry, target, form).  On A100/fp16 the selected mapping is also
   emitted under each pipelined schema it admits, in all three dialects,
   so the asynchronous staging path and the emulated two-slab rotation are
   locked suite-wide too. *)
let test_codegen_suite_digests () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun entry ->
      let problem = Tc_tccg.Suite.problem entry in
      List.iter
        (fun (arch, precision) ->
          let plan =
            (Driver.run_exn (Ctx.make ~arch ~precision ()) problem).Driver.plan
          in
          let pipelined =
            List.concat_map
              (fun s ->
                if
                  Plan.schema_feasible ~arch ~precision
                    ~mapping:plan.Plan.mapping s
                then
                  let p = Plan.with_schema s plan in
                  let name = Schema.to_string s in
                  [
                    ("cuda-" ^ name, Codegen.emit p);
                    ("opencl-" ^ name, Codegen.emit ~dialect:Codegen.Opencl p);
                    ("c-" ^ name, Codegen.emit ~dialect:Codegen.C_host p);
                  ]
                else [])
              [ Schema.Pipelined; Schema.Pipelined_mma ]
          in
          List.iter
            (fun (form, text) ->
              Printf.bprintf buf "%s %s/%s %s %s\n" entry.Tc_tccg.Suite.name
                arch.Arch.name
                (Precision.to_string precision)
                form
                (Digest.to_hex (Digest.string text)))
            ([
               ("cuda", Codegen.emit plan);
               ("opencl", Codegen.emit ~dialect:Codegen.Opencl plan);
               ("c", Codegen.emit ~dialect:Codegen.C_host plan);
               ("cuda-standalone", Codegen.emit ~standalone:true plan);
               ( "c-standalone",
                 Codegen.emit ~dialect:Codegen.C_host ~standalone:true plan );
             ]
            @ pipelined))
        [ (Arch.v100, Precision.FP64); (Arch.a100, Precision.FP16) ])
    Tc_tccg.Suite.all;
  check_golden "suite codegen digests" "codegen_suite.txt"
    (Buffer.contents buf)

let has_sub src needle =
  let ln = String.length needle and ls = String.length src in
  let rec go i = i + ln <= ls && (String.sub src i ln = needle || go (i + 1)) in
  go 0

let test_codegen_opencl_structure () =
  let src = Codegen.emit_kernel ~dialect:Codegen.Opencl gemm_plan in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "opencl contains %S" needle) true
        (has_sub src needle))
    [
      "__kernel void cogent_ab_ac_cb";
      "__global double* restrict g_C";
      "__local double s_A[128]";
      "barrier(CLK_LOCAL_MEM_FENCE);";
      "get_local_id(0)";
      "get_group_id(0)";
      "#pragma OPENCL EXTENSION cl_khr_fp64 : enable";
    ];
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "opencl lacks %S" needle) false
        (has_sub src needle))
    [ "__syncthreads"; "threadIdx"; "blockIdx"; "__shared__"; "long long" ]

let test_codegen_opencl_fp32_no_pragma () =
  let plan =
    Plan.make ~problem:gemm_like ~mapping:gemm_mapping ~arch:Arch.v100
      ~precision:Precision.FP32
  in
  let src = Codegen.emit_kernel ~dialect:Codegen.Opencl plan in
  check Alcotest.bool "no fp64 pragma in fp32 kernels" false
    (has_sub src "cl_khr_fp64")

let test_codegen_structure () =
  let eq1_plan =
    Plan.make ~problem:eq1 ~mapping:eq1_mapping ~arch:Arch.v100
      ~precision:Precision.FP64
  in
  let src = Codegen.emit eq1_plan in
  let has needle =
    check Alcotest.bool (Printf.sprintf "contains %S" needle) true
      (let len_n = String.length needle and len_s = String.length src in
       let rec go i =
         i + len_n <= len_s
         && (String.sub src i len_n = needle || go (i + 1))
       in
       go 0)
  in
  has "__global__ void cogent_abcd_aebf_dfce";
  has "__shared__ double s_A[512]";
  has "__shared__ double s_B[512]";
  has "double r_C[16]";
  has "__syncthreads();";
  has "r_C[ry * 4 + rx] += r_A[rx] * r_B[ry];";
  has "extern \"C\" void cogent_abcd_aebf_dfce_launch";
  has "dim3 block(16, 16);";
  (* runtime-parametric extents *)
  has "const int N_a"

let test_codegen_fp32 () =
  let plan =
    Plan.make ~problem:gemm_like ~mapping:gemm_mapping ~arch:Arch.v100
      ~precision:Precision.FP32
  in
  let src = Codegen.emit_kernel plan in
  check Alcotest.bool "uses float" true
    (String.length src > 0
    && (let re = "float* __restrict__ g_C" in
        let len_n = String.length re and len_s = String.length src in
        let rec go i =
          i + len_n <= len_s && (String.sub src i len_n = re || go (i + 1))
        in
        go 0))

let test_codegen_standalone_has_main () =
  let src = Codegen.emit ~standalone:true gemm_plan in
  let has needle =
    let len_n = String.length needle and len_s = String.length src in
    let rec go i =
      i + len_n <= len_s && (String.sub src i len_n = needle || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "main" true (has "int main()");
  check Alcotest.bool "cudaMalloc" true (has "cudaMalloc");
  check Alcotest.bool "representative extents" true (has "const int N_a = 32;");
  check Alcotest.bool "C-host main" true
    (has_sub (Codegen.emit ~dialect:Codegen.C_host ~standalone:true gemm_plan)
       "int main(");
  match Codegen.emit ~dialect:Codegen.Opencl ~standalone:true gemm_plan with
  | exception Invalid_argument _ -> ()
  | _ -> fail "standalone OpenCL emitted"

(* ---- Variants (§IV-B multi-version generation) ---- *)

let variants_ast =
  match Parser.parse "ab-ac-cb" with Ok a -> a | Error _ -> assert false

let small_sizes = Sizes.of_list [ ('a', 64); ('b', 64); ('c', 64) ]
let big_sizes = Sizes.of_list [ ('a', 2048); ('b', 2048); ('c', 512) ]

let variants_t =
  Result.get_ok
    (Variants.generate_ctx Ctx.default variants_ast [ small_sizes; big_sizes ])

let test_variants_generate () =
  check Alcotest.int "two versions" 2 (List.length variants_t.Variants.variants);
  let names = List.map (fun v -> v.Variants.name) variants_t.Variants.variants in
  check Alcotest.bool "distinct names" true
    (List.length (List.sort_uniq String.compare names) = 2)

let test_variants_generate_rejects () =
  let generate = Variants.generate_ctx Ctx.default variants_ast in
  (match generate [] with
  | Error e ->
      check Alcotest.bool "error names its raiser" true
        (String.starts_with ~prefix:"Variants.generate_ctx: "
           (Driver.error_to_string e))
  | Ok _ -> fail "empty representative list accepted");
  match generate [ Sizes.of_list [ ('a', 4) ] ] with
  | Error _ -> ()
  | Ok _ -> fail "non-covering sizes accepted"

let test_variants_distance () =
  check (Alcotest.float 1e-9) "identical sizes" 0.0
    (Variants.distance small_sizes small_sizes [ 'a'; 'b'; 'c' ]);
  check Alcotest.bool "positive otherwise" true
    (Variants.distance small_sizes big_sizes [ 'a'; 'b'; 'c' ] > 0.0)

let test_variants_select () =
  let exact = Variants.select variants_t big_sizes in
  check Alcotest.bool "exact representative selected" true
    (exact.Variants.sizes == big_sizes
    || Variants.distance exact.Variants.sizes big_sizes [ 'a'; 'b'; 'c' ] = 0.0);
  (* a size near the small representative picks the small variant *)
  let near_small = Sizes.of_list [ ('a', 80); ('b', 80); ('c', 48) ] in
  let v = Variants.select variants_t near_small in
  check Alcotest.int "nearest is the small version" 64
    (Sizes.extent v.Variants.sizes 'a');
  match Variants.select variants_t (Sizes.of_list [ ('a', 4) ]) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "non-covering runtime size accepted"

let test_variants_emit () =
  let src = Variants.emit variants_t in
  let has needle =
    let ln = String.length needle and ls = String.length src in
    let rec go i = i + ln <= ls && (String.sub src i ln = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "v0 kernel" true (has "cogent_ab_ac_cb_v0(");
  check Alcotest.bool "v1 kernel" true (has "cogent_ab_ac_cb_v1(");
  check Alcotest.bool "dispatcher" true (has "cogent_ab_ac_cb_dispatch(");
  check Alcotest.bool "distance code" true (has "fabs(log((double)N_a / 64.0))");
  check Alcotest.bool "dispatch calls v1" true
    (has "case 1: cogent_ab_ac_cb_v1_launch(d_C, d_A, d_B, N_a, N_b, N_c, stream); break;")

(* ---- Driver ---- *)

let test_driver_generate () =
  match Driver.run Ctx.default eq1 with
  | Error e -> fail (Driver.error_to_string e)
  | Ok r ->
      check Alcotest.bool "ranked nonempty" true (r.Driver.ranked <> []);
      check (Alcotest.float 0.5) "naive space" 3_981_312.0 r.Driver.naive_space;
      (* without a measure, the plan is the model-cost minimum *)
      let _, min_cost = List.hd r.Driver.ranked in
      check (Alcotest.float 1e-6) "plan cost is minimum" min_cost
        r.Driver.plan.Plan.cost

let test_driver_refine_uses_measure () =
  (* a measure preferring many blocks must pick the max-blocks candidate
     among the top 8 *)
  let measure plan = float_of_int (Plan.num_blocks plan) in
  let r = Driver.run_exn (Ctx.make ~refine:8 ~measure ()) eq1 in
  let r0 = Driver.run_exn Ctx.default eq1 in
  let top8 = List.filteri (fun k _ -> k < 8) r0.Driver.ranked in
  let best_blocks =
    List.fold_left
      (fun acc (m, _) -> max acc (Mapping.num_blocks eq1 m))
      0 top8
  in
  check Alcotest.int "picked max blocks among top 8" best_blocks
    (Plan.num_blocks r.Driver.plan)

let test_driver_refine_measurement_count () =
  (* refinement measures each top-[refine] candidate exactly once — no
     extra seed run for the top plan (atomic: the pool may fan the
     measurements out across domains) *)
  let calls = Atomic.make 0 in
  let measure plan =
    Atomic.incr calls;
    float_of_int (Plan.num_blocks plan)
  in
  let refine = 6 in
  let r = Driver.run_exn (Ctx.make ~refine ~measure ()) eq1 in
  let expected = min refine (List.length r.Driver.ranked) in
  check Alcotest.int "one measurement per refined candidate" expected
    (Atomic.get calls);
  (* on A100/fp16 each refined mapping is raced under every feasible
     schema: one measurement per (mapping, schema) lane, and the lanes of
     one mapping are the same plan — same mapping and model cost — under
     each schema *)
  let seen = ref [] and lock = Mutex.create () in
  let measure plan =
    Mutex.protect lock (fun () -> seen := plan :: !seen);
    float_of_int (Plan.num_blocks plan)
  in
  let arch = Arch.a100 and precision = Precision.FP16 in
  let r = Driver.run_exn (Ctx.make ~arch ~precision ~refine ~measure ()) eq1 in
  let refined = List.filteri (fun k _ -> k < refine) r.Driver.ranked in
  List.iter
    (fun (m, _) ->
      let lanes =
        List.filter (fun p -> Mapping.equal p.Plan.mapping m) !seen
      in
      let cost =
        (Plan.make ~problem:eq1 ~mapping:m ~arch ~precision).Plan.cost
      in
      let names l = List.sort compare (List.map Schema.to_string l) in
      check
        (Alcotest.list Alcotest.string)
        "one lane per feasible schema"
        (names (Plan.feasible_schemas ~arch ~precision m))
        (names (List.map (fun p -> p.Plan.schema) lanes));
      List.iter
        (fun p ->
          check Alcotest.bool "lanes share the plan's cost" true
            (Float.equal p.Plan.cost cost))
        lanes)
    refined;
  check Alcotest.int "lanes cover exactly the refined mappings"
    (List.fold_left
       (fun n (m, _) ->
         n + List.length (Plan.feasible_schemas ~arch ~precision m))
       0 refined)
    (List.length !seen)

let test_driver_auto_split () =
  let simulate plan =
    (* stand-in measurement inside the core tests: model cost inverse is
       enough to exercise the plumbing deterministically *)
    1.0 /. (1.0 +. plan.Plan.cost)
  in
  let ttm =
    Problem.of_string_exn "ab-cad-dcb"
      ~sizes:[ ('a', 384); ('b', 384); ('c', 128); ('d', 128) ]
  in
  let ctx = Ctx.make ~measure:simulate () in
  let base = Driver.run_exn ctx ttm in
  let with_split = Driver.run_exn ctx ~auto_split:true ttm in
  check Alcotest.bool "never worse under its own measure" true
    (simulate with_split.Driver.plan >= simulate base.Driver.plan);
  (* without a measure, auto_split silently degrades to the base path *)
  let no_measure = Driver.run_exn Ctx.default ~auto_split:true ttm in
  check Alcotest.bool "same contraction without measure" true
    (Problem.flops no_measure.Driver.plan.Plan.problem
    = Problem.flops ttm)

let test_driver_top_plans () =
  let r = Driver.run_exn Ctx.default eq1 in
  check Alcotest.int "default 5" 5 (List.length (Driver.top_plans r));
  check Alcotest.int "n=2" 2 (List.length (Driver.top_plans ~n:2 r))

let test_driver_cuda_source () =
  let r = Driver.run_exn Ctx.default eq1 in
  check Alcotest.bool "emits something" true
    (String.length (Codegen.emit r.Driver.plan) > 500)

let driver_succeeds_on_generated =
  QCheck.Test.make ~count:40 ~name:"driver succeeds on random contractions"
    Gen.case_arbitrary (fun c ->
      match Driver.run Ctx.default c.Gen.problem with
      | Ok r -> Mapping.validate c.Gen.problem r.Driver.plan.Plan.mapping = Ok ()
      | Error _ -> false)

(* ---- Cache ---- *)

let test_cache_hits_and_misses () =
  let cache = Cache.create () in
  let p1 = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ] in
  let _ = Cache.find_or_generate_ctx cache Ctx.default p1 in
  let _ = Cache.find_or_generate_ctx cache Ctx.default p1 in
  (* 60 rounds to the same power-of-two class as 64 *)
  let near = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 60); ('b', 60); ('c', 60) ] in
  let _ = Cache.find_or_generate_ctx cache Ctx.default near in
  let s = Cache.stats cache in
  check Alcotest.int "one entry" 1 s.Cache.entries;
  check Alcotest.int "two hits" 2 s.Cache.hits;
  check Alcotest.int "one miss" 1 s.Cache.misses

let test_cache_discriminates () =
  let cache = Cache.create () in
  let p = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ] in
  let far = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 512); ('b', 512); ('c', 512) ] in
  let other_layout = Problem.of_string_exn "ab-ca-cb" ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ] in
  ignore (Cache.find_or_generate_ctx cache Ctx.default p);
  ignore (Cache.find_or_generate_ctx cache Ctx.default far);
  ignore (Cache.find_or_generate_ctx cache Ctx.default other_layout);
  ignore
    (Cache.find_or_generate_ctx cache
       (Ctx.make ~precision:Precision.FP32 ())
       p);
  ignore (Cache.find_or_generate_ctx cache (Ctx.make ~arch:Arch.p100 ()) p);
  check Alcotest.int "five distinct entries" 5 (Cache.stats cache).Cache.entries

let test_cache_size_class () =
  let p = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 48); ('b', 65); ('c', 96) ] in
  (* 48 -> 64 (ties round down: 32 vs 64 equidistant? 48-32=16, 64-48=16 -> down), 65 -> 64, 96 -> 64 (96-64=32, 128-96=32 -> down) *)
  check Alcotest.string "rounded extents" "a:32,b:64,c:64" (Cache.size_class p)

(* Doubling past 2^61 overflows an OCaml int: extents above it must round
   to 2^61 instead of looping forever. *)
let test_cache_key_huge_extents () =
  let key a =
    Cache.key Ctx.default
      (Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', a); ('b', 4); ('c', 4) ])
  in
  let top = 1 lsl 61 in
  let want = Printf.sprintf "ab-ac-cb|V100|fp64|a:%d,b:4,c:4" top in
  check Alcotest.string "2^61 + 1" want (key (top + 1));
  check Alcotest.string "max_int" want (key max_int);
  check Alcotest.string "2^61 itself" want (key top)

let test_cache_clear () =
  let cache = Cache.create () in
  let p = Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ] in
  ignore (Cache.find_or_generate_ctx cache Ctx.default p);
  Cache.clear cache;
  check Alcotest.int "empty" 0 (Cache.stats cache).Cache.entries;
  check Alcotest.int "counters reset" 0 (Cache.stats cache).Cache.hits

let () =
  Alcotest.run "cogent"
    [
      ( "mapping",
        [
          Alcotest.test_case "sizes" `Quick test_mapping_sizes;
          Alcotest.test_case "tile_of" `Quick test_mapping_tile_of;
          Alcotest.test_case "blocks and steps" `Quick test_mapping_blocks_steps;
          Alcotest.test_case "validate accepts" `Quick test_mapping_validate_ok;
          Alcotest.test_case "validate rejects" `Quick
            test_mapping_validate_rejects;
          Alcotest.test_case "compare" `Quick test_mapping_compare;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "pack clamps at target" `Quick
            test_pack_greedy_clamp;
          Alcotest.test_case "pack multiple indices" `Quick
            test_pack_greedy_multi;
          Alcotest.test_case "pack non-divisible clamp" `Quick
            test_pack_greedy_non_divisible;
          Alcotest.test_case "pack exhausted" `Quick test_pack_greedy_exhausted;
          Alcotest.test_case "Eq. 1 enumeration invariants" `Quick
            test_enumerate_eq1_nonempty;
          Alcotest.test_case "deduplicated" `Quick test_enumerate_dedup;
          Alcotest.test_case "tiny-problem fallback" `Quick
            test_enumerate_tiny_fallback;
          Alcotest.test_case "naive space matches §IV" `Quick
            test_naive_space_eq1;
          Gen.to_alcotest enumerate_all_valid;
          Gen.to_alcotest enumerate_tbk_covers_internals;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "Eq. 1 stream = enumeration" `Quick
            test_candidates_eq1_stream;
          Gen.to_alcotest candidates_match_enumerate;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "Eq. 1 streamed = legacy" `Quick
            test_pipeline_eq1;
          Alcotest.test_case "bound aborts tallied distinctly" `Quick
            test_pipeline_bound_aborts;
          Alcotest.test_case "suite streamed = legacy on every target" `Quick
            test_pipeline_suite_targets;
          Gen.to_alcotest (streamed_matches_legacy ());
          Gen.to_alcotest (streamed_matches_legacy ~budget:3 ());
          Alcotest.test_case "golden suite search outcomes" `Quick
            test_pipeline_suite_golden;
          Alcotest.test_case "golden suite simulator outputs" `Quick
            test_sim_suite_golden;
        ] );
      ( "prune",
        [
          Alcotest.test_case "smem overflow" `Quick test_prune_smem_overflow;
          Alcotest.test_case "too many threads" `Quick
            test_prune_too_many_threads;
          Alcotest.test_case "uncoalesced output" `Quick test_prune_uncoalesced;
          Alcotest.test_case "fp32 register footprint" `Quick
            test_prune_regs_fp32_cheaper;
          Alcotest.test_case "filter statistics" `Quick test_prune_filter_stats;
          Alcotest.test_case "relaxation for tiny problems" `Quick
            test_prune_relaxation;
          Alcotest.test_case "reason codes follow declaration order" `Quick
            test_prune_reason_codes;
          Gen.to_alcotest verdict_matches_occupancy;
        ] );
      ( "cost",
        [
          Alcotest.test_case "contiguous run" `Quick test_cost_contiguous_run;
          Alcotest.test_case "store run" `Quick test_cost_store_run;
          Alcotest.test_case "breakdown totals" `Quick test_cost_breakdown_total;
          Alcotest.test_case "prefers coalesced stores" `Quick
            test_cost_prefers_coalesced_store;
          Alcotest.test_case "fp32 cheaper" `Quick
            test_cost_fp32_fewer_transactions;
          Alcotest.test_case "foreign-block scaling" `Quick
            test_cost_foreign_block_scaling;
          Alcotest.test_case "bytes moved" `Quick test_cost_bytes_moved;
          Alcotest.test_case "rank sorted" `Quick test_cost_rank_sorted;
        ] );
      ( "plan",
        [
          Alcotest.test_case "derived quantities" `Quick test_plan_derived;
          Alcotest.test_case "rejects invalid mapping" `Quick
            test_plan_rejects_invalid;
        ] );
      ( "schemas",
        [
          Alcotest.test_case "SMEM boundary at 2x slabs" `Quick
            test_schema_smem_boundary;
          Alcotest.test_case "feasibility rules" `Quick test_schema_feasibility;
          Alcotest.test_case "forced infeasible schema is typed" `Quick
            test_schema_forced_infeasible;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "golden ab-ac-cb kernel" `Quick test_codegen_golden;
          Alcotest.test_case "golden ab-ac-cb OpenCL kernel" `Quick
            test_codegen_golden_opencl;
          Alcotest.test_case "golden ab-ac-cb C-host kernel" `Quick
            test_codegen_golden_c;
          Alcotest.test_case "golden pipelined kernel" `Quick
            test_codegen_golden_pipelined;
          Alcotest.test_case "golden pipelined OpenCL kernel" `Quick
            test_codegen_golden_pipelined_opencl;
          Alcotest.test_case "golden pipelined C-host kernel" `Quick
            test_codegen_golden_pipelined_c;
          Alcotest.test_case "OpenCL structure" `Quick
            test_codegen_opencl_structure;
          Alcotest.test_case "OpenCL fp32 pragma" `Quick
            test_codegen_opencl_fp32_no_pragma;
          Alcotest.test_case "Eq. 1 structure" `Quick test_codegen_structure;
          Alcotest.test_case "fp32 kernels" `Quick test_codegen_fp32;
          Alcotest.test_case "standalone driver" `Quick
            test_codegen_standalone_has_main;
          Gen.to_alcotest codegen_deterministic;
          Alcotest.test_case "golden MMA kernel" `Quick test_codegen_golden_mma;
          Alcotest.test_case "golden suite codegen digests" `Quick
            test_codegen_suite_digests;
        ] );
      ( "variants",
        [
          Alcotest.test_case "generate" `Quick test_variants_generate;
          Alcotest.test_case "generate rejects" `Quick
            test_variants_generate_rejects;
          Alcotest.test_case "distance" `Quick test_variants_distance;
          Alcotest.test_case "select" `Quick test_variants_select;
          Alcotest.test_case "emit dispatcher" `Quick test_variants_emit;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "discriminates keys" `Quick test_cache_discriminates;
          Alcotest.test_case "size class" `Quick test_cache_size_class;
          Alcotest.test_case "key terminates on huge extents" `Quick
            test_cache_key_huge_extents;
          Alcotest.test_case "clear" `Quick test_cache_clear;
        ] );
      ( "driver",
        [
          Alcotest.test_case "generate" `Quick test_driver_generate;
          Alcotest.test_case "refine uses measurement" `Quick
            test_driver_refine_uses_measure;
          Alcotest.test_case "refine measures each candidate once" `Quick
            test_driver_refine_measurement_count;
          Alcotest.test_case "auto_split" `Quick test_driver_auto_split;
          Alcotest.test_case "top_plans" `Quick test_driver_top_plans;
          Alcotest.test_case "cuda source" `Quick test_driver_cuda_source;
          Gen.to_alcotest driver_succeeds_on_generated;
        ] );
    ]
