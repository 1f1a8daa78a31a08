(* Cross-validation of Tc_profile and its foundations: the Txcount
   transaction convention, the interpreter's ground-truth counters vs the
   simulator's boundary-exact prediction (they must agree EXACTLY — both
   sides count the same convention, so any gap is a bug in the simulator's
   pattern combinatorics), the rendered profiler report (golden), and the
   machine-readable bench report schema with its regression gate. *)

open Tc_gpu
open Tc_expr
open Cogent
module Json = Tc_obs.Json
module Profile = Tc_profile.Profile
module Benchrep = Tc_profile.Benchrep

let check = Alcotest.check
let fail = Alcotest.fail

(* ---- Txcount: the shared transaction-counting convention ---- *)

let axis tile cut stride = { Txcount.tile; cut; stride }
let sweep = Txcount.staged_sweep

let test_txcount_contiguous () =
  (* one wave of 32 contiguous fp64 elements spans two 128-byte lines *)
  check Alcotest.int "full contiguous" 2 (sweep ~width:32 ~ept:16 [| axis 32 32 1 |]);
  (* masked tail lanes shorten the segment *)
  check Alcotest.int "partial contiguous" 2 (sweep ~width:32 ~ept:16 [| axis 32 20 1 |]);
  check Alcotest.int "within one line" 1 (sweep ~width:32 ~ept:16 [| axis 32 10 1 |]);
  check Alcotest.int "cut=0 masks everything" 0
    (sweep ~width:32 ~ept:16 [| axis 32 0 1 |])

let test_txcount_strided () =
  (* a 8x4 slab of a row-major tensor: four address-disjoint rows, each
     its own segment under one line *)
  check Alcotest.int "row-major slab" 4
    (sweep ~width:32 ~ept:16 [| axis 8 8 1; axis 4 4 100 |])

let test_txcount_no_cross_wave_coalescing () =
  (* 32 contiguous elements in one 128-byte line: one wave of 32 threads
     needs one transaction, but two waves of 16 threads pay twice even
     though the addresses are adjacent (a later iteration of the
     cooperative loop is a separate memory operation) *)
  check Alcotest.int "one wave, one line" 1 (sweep ~width:32 ~ept:32 [| axis 32 32 1 |]);
  check Alcotest.int "two waves, two lines" 2 (sweep ~width:16 ~ept:32 [| axis 32 32 1 |])

let test_txcount_guard_gap_splits_segment () =
  (* boundary guards mask the middle of a wave; the in-range runs on
     either side are separate segments because their addresses are not
     adjacent *)
  check Alcotest.int "masked gap" 2
    (sweep ~width:8 ~ept:16 [| axis 4 2 1; axis 2 2 4 |]);
  check Alcotest.int "no gap when full" 1
    (sweep ~width:8 ~ept:16 [| axis 4 4 1; axis 2 2 4 |])

(* The row walk's own paths, each checked against the element-by-element
   oracle as well as by hand. *)
let check_sweep what expected ~width ~ept axes =
  check Alcotest.int (what ^ " (oracle)") expected
    (Gen.staged_sweep_ref ~width ~ept axes);
  check Alcotest.int what expected (sweep ~width ~ept axes)

let test_txcount_run_split_mid_row () =
  (* 12 contiguous elements, waves of 8: the run is cut at position 8 *)
  check_sweep "wave boundary mid-row" 2 ~width:8 ~ept:16 [| axis 12 12 1 |]

let test_txcount_row_continues_segment () =
  (* tile = extent on the first axis: row 1 starts at the address after
     row 0's last, so the 12 elements form one segment (2 lines of 8),
     not three per-row segments (3 lines) *)
  check_sweep "rows coalesce" 2 ~width:32 ~ept:8 [| axis 4 4 1; axis 3 3 4 |]

let test_txcount_masked_tail_boundary () =
  (* row 0 covers addresses 0-1 then a masked tail; row 1 continues at 2.
     A wave boundary inside the tail (width 3, position 3) closes the
     segment; without one (width 8) the segment survives the tail *)
  check_sweep "boundary in masked tail" 2 ~width:3 ~ept:16
    [| axis 4 2 1; axis 2 2 2 |];
  check_sweep "no boundary in masked tail" 1 ~width:8 ~ept:16
    [| axis 4 2 1; axis 2 2 2 |]

let test_txcount_non_unit_first_stride () =
  check_sweep "stride 2" 4 ~width:32 ~ept:16 [| axis 4 4 2 |];
  check_sweep "stride 0" 4 ~width:32 ~ept:16 [| axis 4 4 0 |];
  check_sweep "stride 2, masked" 4 ~width:32 ~ept:16
    [| axis 4 2 2; axis 2 2 8 |]

(* The closed form's branches, each on a sweep whose rows cannot share a
   segment, and the sweeps that must fall back to the row walk because
   the closed form would miscount them. *)
let test_txcount_closed_form () =
  (* rows of 8 pack whole into waves of 32: three in-range rows of two
     lines each, the fourth masked *)
  check_sweep "row length divides the wave" 6 ~width:32 ~ept:4
    [| axis 8 8 1; axis 4 3 100 |];
  (* every row of 16 starts a wave of 8: 13 in-range elements split 8 + 5,
     two lines each, on three rows *)
  check_sweep "wave divides the row length" 12 ~width:8 ~ept:4
    [| axis 16 13 1; axis 3 3 40 |];
  (* the second axis is dense in address, so the first two merge into rows
     of 16 whose in-range part is a 12-element prefix *)
  check_sweep "merged dense prefix, partial last cut" 6 ~width:32 ~ept:4
    [| axis 4 4 1; axis 4 3 4; axis 2 2 64 |];
  (* a non-unit first stride leaves rows of one element, none adjacent *)
  check_sweep "rows of one element" 8 ~width:32 ~ept:16
    [| axis 4 4 2; axis 2 2 16 |]

let test_txcount_walk_fallbacks () =
  (* stride 2 then 7: addresses 6 and 7 are adjacent across the rows *)
  check_sweep "non-unit first stride" 7 ~width:32 ~ept:16
    [| axis 4 4 2; axis 2 2 7 |];
  (* rows of 12 in waves of 5 start at every offset of a wave *)
  check_sweep "neither length divides the other" 22 ~width:5 ~ept:2
    [| axis 12 12 1; axis 3 3 100 |];
  (* each row's two in-range elements continue the previous row's *)
  check_sweep "next stride equals the in-range prefix" 2 ~width:16 ~ept:4
    [| axis 4 2 1; axis 3 3 2 |];
  (* a store whose thread order puts the layout's third index before its
     second: at a boundary cut of 1 on the former, the two in-range rows
     are adjacent in address and share one segment *)
  check_sweep "non-monotone thread order" 1 ~width:16 ~ept:16
    [| axis 4 4 1; axis 2 1 8; axis 2 2 4 |]

(* The row walk equals the element-by-element oracle over random axis
   sets: 0-4 axes, tiles 1-9, cuts from -1 to tile+1 (fully masked to
   past the tile), strides 0, 1, dense (the product of the tiles before)
   or arbitrary, waves of 1-40 and 1-20 elements per transaction. *)
let sweep_case_gen =
  let open QCheck.Gen in
  let* n = int_range 0 4 in
  let* width = int_range 1 40 in
  let* ept = int_range 1 20 in
  let rec axes k dense acc =
    if k = n then return (Array.of_list (List.rev acc))
    else
      let* tile = int_range 1 9 in
      let* cut = int_range (-1) (tile + 1) in
      let* stride =
        frequency
          [ (1, return 0); (3, return 1); (3, return dense); (3, int_range 2 40) ]
      in
      axes (k + 1) (dense * tile) ({ Txcount.tile; cut; stride } :: acc)
  in
  let+ axes = axes 0 1 [] in
  (width, ept, axes)

(* Sweeps as the kernels issue them: tiles from the enumerator's range,
   each axis of a tensor laid out densely (stride = product of the
   extents before it), cut = the tile or the extent's remainder, the axes
   in layout order or shuffled (a store's thread order), waves a product
   of tiles, and the precisions' elements per transaction. *)
let realistic_sweep_gen =
  let open QCheck.Gen in
  let tiles = [ 1; 2; 3; 4; 6; 8; 12; 16; 32 ] in
  let* n = int_range 1 4 in
  let rec axes k stride acc =
    if k = n then return (List.rev acc)
    else
      let* tile = oneofl tiles in
      let* full = int_range 0 3 in
      let* rem = int_range 0 (tile - 1) in
      let extent = max 1 ((tile * full) + rem) in
      let* boundary = bool in
      let cut =
        if (boundary || full = 0) && extent mod tile > 0 then extent mod tile
        else tile
      in
      axes (k + 1) (stride * extent) ({ Txcount.tile; cut; stride } :: acc)
  in
  let* axes = axes 0 1 [] in
  let* axes = frequency [ (3, return axes); (1, shuffle_l axes) ] in
  let* width = list_size (int_range 1 3) (oneofl tiles) in
  let* ept = oneofl [ 16; 32; 64 ] in
  return (List.fold_left ( * ) 1 width, ept, Array.of_list axes)

let sweep_case_print (width, ept, axes) =
  Printf.sprintf "width %d ept %d [%s]" width ept
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun a ->
               Printf.sprintf "tile %d cut %d stride %d" a.Txcount.tile a.cut
                 a.stride)
             axes)))

let prop_sweep_eq_ref =
  QCheck.Test.make ~count:3000 ~name:"row walk == element walk"
    (QCheck.make ~print:sweep_case_print sweep_case_gen)
    (fun (width, ept, axes) ->
      sweep ~width ~ept axes = Gen.staged_sweep_ref ~width ~ept axes)

let prop_realistic_sweep_eq_ref =
  QCheck.Test.make ~count:3000 ~name:"staged sweep == element walk (kernel shapes)"
    (QCheck.make ~print:sweep_case_print realistic_sweep_gen)
    (fun (width, ept, axes) ->
      sweep ~width ~ept axes = Gen.staged_sweep_ref ~width ~ept axes)

(* ---- measured counters == simulator-exact prediction ---- *)

(* A spread of enumerated configurations for a problem: with Gen's extents
   in 1..6 and power-of-two tile targets, most sampled plans have partial
   boundary tiles on several axes. *)
let sample_mappings problem =
  match Oracle.candidates problem with
  | [] -> []
  | all ->
      let n = List.length all in
      List.sort_uniq compare [ 0; n / 2; n - 1 ]
      |> List.map (fun k -> List.nth all k)

(* Each sampled mapping runs on V100/fp64 and on A100/fp16 under every
   admitted schema. *)
let agree_case (c : Gen.case) =
  let problem = c.Gen.problem in
  let plans mapping =
    Plan.make ~problem ~mapping ~arch:Arch.v100 ~precision:Precision.FP64
    :: Gen.schema_plans problem mapping
  in
  List.iter
    (fun plan ->
      let m = Interp.measure plan in
      let e =
        Tc_sim.Simkernel.transactions_exact plan.Plan.precision problem
          plan.Plan.mapping
      in
      if
        not
          (m.Interp.tx_lhs = e.Cost.lhs
          && m.Interp.tx_rhs = e.Cost.rhs
          && m.Interp.tx_out = e.Cost.out)
      then
        QCheck.Test.fail_reportf "measured (%g,%g,%g) <> exact (%g,%g,%g) for %a"
          m.Interp.tx_lhs m.Interp.tx_rhs m.Interp.tx_out e.Cost.lhs e.Cost.rhs
          e.Cost.out Plan.pp plan;
      if m.Interp.fma_useful <> Plan.flops plan /. 2.0 then
        QCheck.Test.fail_reportf "useful FMAs %g <> flops/2 %g for %a"
          m.Interp.fma_useful
          (Plan.flops plan /. 2.0)
          Problem.pp problem;
      if m.Interp.fma_padded < m.Interp.fma_useful then
        QCheck.Test.fail_reportf "padded FMA slots below useful FMAs for %a"
          Problem.pp problem)
    (List.concat_map plans (sample_mappings problem));
  true

let prop_measured_eq_exact =
  QCheck.Test.make ~count:40
    ~name:"Interp.measure == Simkernel.transactions_exact (no-L2)"
    Gen.case_arbitrary agree_case

(* execute ?counters must tally exactly what the standalone replay does,
   and fields must accumulate across executions. *)
let test_execute_counters () =
  let problem =
    Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:[ ('a', 6); ('b', 5); ('c', 4); ('d', 7); ('e', 3); ('f', 2) ]
  in
  let b idx tile = { Mapping.index = idx; tile } in
  let mapping =
    {
      Mapping.tbx = [ b 'a' 4 ];
      regx = [ b 'b' 2 ];
      tby = [ b 'd' 4 ];
      regy = [ b 'c' 2 ];
      tbk = [ b 'e' 2; b 'f' 2 ];
      grid = [];
    }
  in
  let plan =
    Plan.make ~problem ~mapping ~arch:Arch.v100 ~precision:Precision.FP64
  in
  let info = Problem.info problem in
  let orig = info.Tc_expr.Classify.original in
  let shape_of indices =
    Tc_tensor.Shape.of_indices ~sizes:(Problem.sizes problem) indices
  in
  let lhs =
    Tc_tensor.Dense.random ~seed:11 (shape_of orig.Ast.lhs.Ast.indices)
  in
  let rhs =
    Tc_tensor.Dense.random ~seed:12 (shape_of orig.Ast.rhs.Ast.indices)
  in
  let c = Interp.create_counters () in
  ignore (Interp.execute ~counters:c plan ~lhs ~rhs);
  let m = Interp.measure plan in
  let eq what a b = check (Alcotest.float 0.0) what a b in
  eq "tx_lhs" m.Interp.tx_lhs c.Interp.tx_lhs;
  eq "tx_rhs" m.Interp.tx_rhs c.Interp.tx_rhs;
  eq "tx_out" m.Interp.tx_out c.Interp.tx_out;
  eq "smem_bytes" m.Interp.smem_bytes c.Interp.smem_bytes;
  eq "fma_padded" m.Interp.fma_padded c.Interp.fma_padded;
  eq "fma_useful" m.Interp.fma_useful c.Interp.fma_useful;
  eq "store_tx_block_max" m.Interp.store_tx_block_max c.Interp.store_tx_block_max;
  check Alcotest.int "blocks" m.Interp.blocks c.Interp.blocks;
  ignore (Interp.execute ~counters:c plan ~lhs ~rhs);
  eq "tx_lhs accumulates" (2.0 *. m.Interp.tx_lhs) c.Interp.tx_lhs;
  check Alcotest.int "steps accumulate" (2 * m.Interp.steps) c.Interp.steps

(* ---- the profiler on the DESIGN eq1 contraction ---- *)

let golden_path file =
  let beside_exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat "golden" file)
  in
  if Sys.file_exists beside_exe then beside_exe
  else if Sys.file_exists (Filename.concat "golden" file) then
    Filename.concat "golden" file
  else Filename.concat "test/golden" file

let read_golden file =
  let ic = open_in (golden_path file) in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let eq1 =
  Problem.of_string_exn "abcd-aebf-dfce"
    ~sizes:[ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]

let profile_eq1 = lazy (Profile.profile (Gen.plan_of Ctx.default eq1))

let test_profile_eq1_golden () =
  let p = Lazy.force profile_eq1 in
  check Alcotest.string "golden profile report"
    (read_golden "profile_eq1.txt")
    (Profile.render p)

let test_profile_eq1_contracts () =
  let p = Lazy.force profile_eq1 in
  check Alcotest.bool "simulator agrees exactly" true (Profile.sim_agrees p);
  check Alcotest.bool "cost model within documented bound" true
    (Profile.violations p = []);
  (match Json.parse (Json.to_string (Profile.to_json p)) with
  | Ok _ -> ()
  | Error e -> fail ("profile JSON does not parse: " ^ e));
  match Json.parse (Profile.timeline_chrome p) with
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> fail "timeline has no traceEvents")
  | Error e -> fail ("timeline is not valid chrome JSON: " ^ e)

(* ---- bench report schema and regression gate ---- *)

(* Metric values chosen to survive the %g round-trip exactly. *)
let sample_doc =
  {
    Benchrep.target = "figX";
    wall_s = 1.5;
    jobs = 1;
    entries =
      [
        {
          Benchrep.name = "e1";
          expr = "ab-ac-cb";
          arch = "V100";
          precision = "fp64";
          strategies =
            [
              {
                Benchrep.strategy = "cogent";
                metrics =
                  [ ("gflops", 123.5); ("transactions", 4096.0); ("cost", 5000.0) ];
                config = Some "TBx[a:16] TBy[b:16] TBk[c:8]";
              };
              {
                Benchrep.strategy = "talsh";
                metrics = [ ("gflops", 50.25) ];
                config = None;
              };
            ];
        };
      ];
  }

let test_benchrep_roundtrip () =
  (match Result.bind (Json.parse (Json.to_string (Benchrep.to_json sample_doc)))
           Benchrep.of_json
   with
  | Ok d -> check Alcotest.bool "doc roundtrip" true (d = sample_doc)
  | Error e -> fail ("doc roundtrip: " ^ e));
  match
    Result.bind
      (Json.parse (Json.to_string (Benchrep.baseline_to_json [ sample_doc ])))
      Benchrep.baseline_of_json
  with
  | Ok ds -> check Alcotest.bool "baseline roundtrip" true (ds = [ sample_doc ])
  | Error e -> fail ("baseline roundtrip: " ^ e)

let test_benchrep_file_roundtrip () =
  let path = Filename.temp_file "benchrep" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Benchrep.write ~path sample_doc;
      match Benchrep.read ~path with
      | Ok d -> check Alcotest.bool "write/read roundtrip" true (d = sample_doc)
      | Error e -> fail ("read back: " ^ e))

let with_gflops v doc =
  {
    doc with
    Benchrep.entries =
      List.map
        (fun (e : Benchrep.entry) ->
          {
            e with
            strategies =
              List.map
                (fun (s : Benchrep.strategy) ->
                  {
                    s with
                    metrics =
                      List.map
                        (fun (m, x) -> if m = "gflops" then (m, v) else (m, x))
                        s.metrics;
                  })
                e.strategies;
          })
        doc.Benchrep.entries;
  }

let verdicts deltas =
  List.map (fun d -> (d.Benchrep.metric, d.Benchrep.verdict)) deltas

let test_diff_gate () =
  (* identical run: nothing regresses *)
  let same = Benchrep.diff ~baseline:sample_doc sample_doc in
  check Alcotest.bool "identical run has no regressions" true
    (Benchrep.regressions same = []);
  (* 10% slower than baseline: gflops regresses in both strategies *)
  let slower = Benchrep.diff ~baseline:sample_doc (with_gflops 110.0 sample_doc) in
  check Alcotest.int "slower run regresses once (per strategy with gflops > tol)"
    1
    (List.length
       (List.filter
          (fun d -> d.Benchrep.verdict = Benchrep.Regression)
          slower));
  (* faster is an improvement, not a regression *)
  let faster = Benchrep.diff ~baseline:sample_doc (with_gflops 140.0 sample_doc) in
  check Alcotest.bool "faster run has no regressions" true
    (Benchrep.regressions faster = []);
  check Alcotest.bool "faster run reports improvements" true
    (List.exists (fun d -> d.Benchrep.verdict = Benchrep.Improvement) faster);
  (* a vanished strategy is fatal *)
  let gone =
    {
      sample_doc with
      Benchrep.entries =
        List.map
          (fun (e : Benchrep.entry) ->
            {
              e with
              strategies =
                List.filter
                  (fun (s : Benchrep.strategy) -> s.strategy <> "talsh")
                  e.strategies;
            })
          sample_doc.Benchrep.entries;
    }
  in
  let missing = Benchrep.diff ~baseline:sample_doc gone in
  check Alcotest.bool "missing strategy is a regression" true
    (List.exists
       (fun d -> d.Benchrep.verdict = Benchrep.Missing)
       (Benchrep.regressions missing));
  ignore (verdicts missing)

let test_diff_ungated_metric () =
  (* metrics without a tolerance entry are reported nowhere: informational
     quantities (timings, evaluation counts) never gate *)
  let doc =
    {
      sample_doc with
      Benchrep.entries =
        List.map
          (fun (e : Benchrep.entry) ->
            {
              e with
              strategies =
                List.map
                  (fun (s : Benchrep.strategy) ->
                    { s with metrics = ("ns_per_call", 1234.0) :: s.metrics })
                  e.strategies;
            })
          sample_doc.Benchrep.entries;
    }
  in
  let deltas = Benchrep.diff ~baseline:doc (with_gflops 123.5 doc) in
  check Alcotest.bool "ns_per_call produces no delta" true
    (not (List.exists (fun d -> d.Benchrep.metric = "ns_per_call") deltas))

let test_diff_exact_tolerance () =
  (* enumerated/kept are Exact: any drift beyond float slack regresses,
     in either direction *)
  let base =
    {
      Benchrep.target = "prunestats";
      wall_s = 0.0;
      jobs = 1;
      entries =
        [
          {
            Benchrep.name = "e1";
            expr = "ab-ac-cb";
            arch = "V100";
            precision = "fp64";
            strategies =
              [
                {
                  Benchrep.strategy = "search";
                  metrics = [ ("enumerated", 1000.0); ("kept", 30.0) ];
                  config = None;
                };
              ];
          };
        ];
    }
  in
  let bump v =
    {
      base with
      Benchrep.entries =
        List.map
          (fun (e : Benchrep.entry) ->
            {
              e with
              strategies =
                List.map
                  (fun (s : Benchrep.strategy) ->
                    { s with metrics = [ ("enumerated", 1000.0); ("kept", v) ] })
                  e.strategies;
            })
          base.Benchrep.entries;
    }
  in
  check Alcotest.bool "exact metric: equal passes" true
    (Benchrep.regressions (Benchrep.diff ~baseline:base (bump 30.0)) = []);
  check Alcotest.bool "exact metric: more kept still regresses" true
    (Benchrep.regressions (Benchrep.diff ~baseline:base (bump 31.0)) <> []);
  check Alcotest.bool "exact metric: fewer kept regresses" true
    (Benchrep.regressions (Benchrep.diff ~baseline:base (bump 29.0)) <> [])

let () =
  Alcotest.run "profile"
    [
      ( "txcount",
        [
          Alcotest.test_case "contiguous" `Quick test_txcount_contiguous;
          Alcotest.test_case "strided" `Quick test_txcount_strided;
          Alcotest.test_case "no cross-wave coalescing" `Quick
            test_txcount_no_cross_wave_coalescing;
          Alcotest.test_case "guard gap splits segment" `Quick
            test_txcount_guard_gap_splits_segment;
          Alcotest.test_case "run split at a wave boundary" `Quick
            test_txcount_run_split_mid_row;
          Alcotest.test_case "row continues the segment" `Quick
            test_txcount_row_continues_segment;
          Alcotest.test_case "masked tail with a wave boundary" `Quick
            test_txcount_masked_tail_boundary;
          Alcotest.test_case "non-unit first-axis stride" `Quick
            test_txcount_non_unit_first_stride;
          Alcotest.test_case "closed form" `Quick test_txcount_closed_form;
          Alcotest.test_case "row-walk fallbacks" `Quick
            test_txcount_walk_fallbacks;
          Gen.to_alcotest prop_sweep_eq_ref;
          Gen.to_alcotest prop_realistic_sweep_eq_ref;
        ] );
      ( "cross-validation",
        [
          Gen.to_alcotest prop_measured_eq_exact;
          Alcotest.test_case "execute ?counters" `Quick test_execute_counters;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "golden report" `Quick test_profile_eq1_golden;
          Alcotest.test_case "accuracy contracts" `Quick
            test_profile_eq1_contracts;
        ] );
      ( "benchrep",
        [
          Alcotest.test_case "json roundtrip" `Quick test_benchrep_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick
            test_benchrep_file_roundtrip;
          Alcotest.test_case "diff gate" `Quick test_diff_gate;
          Alcotest.test_case "ungated metrics" `Quick test_diff_ungated_metric;
          Alcotest.test_case "exact tolerance" `Quick test_diff_exact_tolerance;
        ] );
    ]
