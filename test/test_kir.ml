(* IR-level checks (Tc_kir): resource derivation agrees with the planner,
   the occupancy request reproduces the plan's occupancy, staging is
   SMEM-bank-conflict-free, and the C-host dialect has the loop-emulated
   structure. *)

open Tc_gpu
open Tc_expr
open Cogent

let check = Alcotest.check

let toy_plan =
  let problem =
    Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 32); ('b', 32); ('c', 32) ]
  in
  let b idx tile = { Mapping.index = idx; tile } in
  let mapping =
    {
      Mapping.tbx = [ b 'a' 16 ];
      regx = [];
      tby = [ b 'b' 16 ];
      regy = [];
      tbk = [ b 'c' 8 ];
      grid = [];
    }
  in
  Result.get_ok
    (Plan.make ~problem ~mapping ~arch:Arch.v100 ~precision:Precision.FP64)

let has_sub src needle =
  let ln = String.length needle and ls = String.length src in
  let rec go i = i + ln <= ls && (String.sub src i ln = needle || go (i + 1)) in
  go 0

(* ---- properties over random problems (shared generator, fixed seed) ---- *)

let prop_resources =
  QCheck.Test.make ~count:60 ~name:"IR-derived smem/regs match the plan"
    Gen.case_arbitrary (fun c ->
      let plan = Gen.plan_of Ctx.default c.Gen.problem in
      let k = Codegen.lower plan in
      Tc_kir.Check.smem_bytes k = Plan.smem_bytes plan
      && Tc_kir.Check.reg_estimate k = Plan.regs_per_thread plan)

let prop_occupancy =
  QCheck.Test.make ~count:60 ~name:"IR occupancy request matches the plan"
    Gen.case_arbitrary (fun c ->
      let plan = Gen.plan_of Ctx.default c.Gen.problem in
      let k = Codegen.lower plan in
      let got =
        Occupancy.calculate plan.Plan.arch (Tc_kir.Check.occupancy_request k)
      in
      let want = Plan.occupancy plan in
      got.Occupancy.active_blocks_per_sm = want.Occupancy.active_blocks_per_sm
      && got.Occupancy.active_warps_per_sm = want.Occupancy.active_warps_per_sm
      && got.Occupancy.occupancy = want.Occupancy.occupancy)

let prop_staging_conflict_free =
  QCheck.Test.make ~count:60 ~name:"staging writes are bank-conflict-free"
    Gen.case_arbitrary (fun c ->
      let plan = Gen.plan_of Ctx.default c.Gen.problem in
      Tc_kir.Check.staging_conflict_ways (Codegen.lower plan) = 1)

(* ---- units ---- *)

let test_cross_validate_ok () =
  (* must not raise *)
  let k = Codegen.lower toy_plan in
  Tc_kir.Check.cross_validate
    ~expected_smem:(Plan.smem_bytes toy_plan)
    ~expected_regs:(Plan.regs_per_thread toy_plan)
    k;
  check Alcotest.int "smem" (Plan.smem_bytes toy_plan)
    (Tc_kir.Check.smem_bytes k)

let test_cross_validate_raises () =
  let k = Codegen.lower toy_plan in
  match
    Tc_kir.Check.cross_validate ~expected_smem:1 ~expected_regs:1 k
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "resource mismatch accepted"

let test_conflict_detected () =
  (* a deliberately strided staging write: lanes 0..31 hit addresses 2*tid,
     so lanes L and L+16 collide in bank (2L mod 32) -> 2-way *)
  let open Tc_kir.Ir in
  let k = Codegen.lower toy_plan in
  let strided_stage =
    [
      For
        {
          var = "l"; start = Var "tid"; bound = Int_lit 512;
          step = Int_lit 256; unroll = false;
          body =
            [ Assign (Larr ("s_A", Mul (Var "l", Int_lit 2)), Scalar_zero) ];
        };
    ]
  in
  (* replace every Stage phase of the schedule *)
  let rec restage = function
    | Phase ({ kind = Stage; _ } as p) -> Phase { p with body = strided_stage }
    | Scoped b -> Scoped (List.map restage b)
    | Step_loop b -> Step_loop (List.map restage b)
    | If_next_step b -> If_next_step (List.map restage b)
    | (Uniform _ | Phase _ | Fence _) as b -> b
  in
  let strided = { k with body = List.map restage k.body } in
  check Alcotest.int "conflict-free lowering" 1
    (Tc_kir.Check.staging_conflict_ways k);
  check Alcotest.int "2-way conflict detected" 2
    (Tc_kir.Check.staging_conflict_ways strided)

(* The same toy configuration double-buffered on a device with async
   copies: Check's accounting must charge the 2x slabs and the pipeline's
   bookkeeping registers exactly as the plan does, staging must stay
   bank-conflict-free, and the CUDA text must carry the cp.async
   prologue/rotation structure. *)
let toy_pipelined =
  Result.get_ok
    (Plan.with_schema Schema.Pipelined { toy_plan with Plan.arch = Arch.a100 })

let test_pipelined_resources () =
  let k = Codegen.lower toy_pipelined in
  check Alcotest.int "smem doubles" (2 * Plan.smem_bytes toy_plan)
    (Tc_kir.Check.smem_bytes k);
  Tc_kir.Check.cross_validate
    ~expected_smem:(Plan.smem_bytes toy_pipelined)
    ~expected_regs:(Plan.regs_per_thread toy_pipelined)
    k;
  check Alcotest.bool "pipeline costs extra registers" true
    (Plan.regs_per_thread toy_pipelined > Plan.regs_per_thread toy_plan);
  check Alcotest.int "staging stays conflict-free" 1
    (Tc_kir.Check.staging_conflict_ways k)

let test_pipelined_cuda_structure () =
  let src = Codegen.emit_kernel ~dialect:Codegen.Cuda toy_pipelined in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "contains %S" needle) true
        (has_sub src needle))
    [
      "__pipeline_memcpy_async";
      "__pipeline_commit();";
      "__pipeline_wait_prior(1);";
      "const int buf_comp = step % 2;";
      "const int buf_stage = stage_step % 2;";
    ];
  (* the classic schema must stay free of pipeline intrinsics *)
  let classic = Codegen.emit_kernel ~dialect:Codegen.Cuda toy_plan in
  check Alcotest.bool "classic has no pipeline intrinsics" false
    (has_sub classic "__pipeline")

let test_c_host_structure () =
  let src = Codegen.emit_kernel ~dialect:Codegen.C_host toy_plan in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "contains %S" needle) true
        (has_sub src needle))
    [
      "void cogent_ab_ac_cb(";
      "for (long long blk = 0; blk < n_blocks; ++blk)";
      "for (int t_y = 0; t_y < 16; ++t_y)";
      "for (int t_x = 0; t_x < 16; ++t_x)";
      "double r_C[256];";
      "const int N_a";
    ];
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "lacks %S" needle) false
        (has_sub src needle))
    [ "__global__"; "__shared__"; "__syncthreads"; "threadIdx"; "restrict" ]

let test_evaluator () =
  let open Tc_kir.Ir in
  let writes = ref [] in
  let env =
    make_env
      ~on_access:(fun kind name addr ->
        if kind = Write then writes := (name, addr) :: !writes)
      ()
  in
  exec env
    [
      Decl { ty = Int; const = true; name = "x"; init = Some (Int_lit 3) };
      For
        {
          var = "i"; start = Int_lit 0; bound = Int_lit 4; step = Int_lit 1;
          unroll = false;
          body =
            [ Assign (Larr ("a", Add (Var "i", Mul (Var "x", Int_lit 10))),
                      Int_lit 0) ];
        };
    ];
  check Alcotest.int "x bound" 3 (Option.get (get_var env "x"));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "recorded writes"
    [ ("a", 30); ("a", 31); ("a", 32); ("a", 33) ]
    (List.rev !writes)

let test_host_fill_matches_c_formula () =
  (* spot values computed with the C expression by hand *)
  let f = Tc_kir.Print.host_fill in
  check (Alcotest.float 1e-12) "tag 1, k 0"
    (float_of_int (40503 land 0xFFFFFF) /. 16777216.0 -. 0.5)
    (f ~tag:1 0);
  check Alcotest.bool "range" true
    (List.for_all
       (fun k ->
         let v = f ~tag:2 k in
         v >= -0.5 && v < 0.5)
       [ 0; 1; 17; 123; 4095 ])

let () =
  Alcotest.run "tc_kir"
    [
      ( "properties",
        [
          Gen.to_alcotest prop_resources;
          Gen.to_alcotest prop_occupancy;
          Gen.to_alcotest prop_staging_conflict_free;
        ] );
      ( "checks",
        [
          Alcotest.test_case "cross-validate accepts" `Quick
            test_cross_validate_ok;
          Alcotest.test_case "cross-validate rejects" `Quick
            test_cross_validate_raises;
          Alcotest.test_case "bank conflicts detected" `Quick
            test_conflict_detected;
          Alcotest.test_case "pipelined resource accounting" `Quick
            test_pipelined_resources;
          Alcotest.test_case "pipelined CUDA structure" `Quick
            test_pipelined_cuda_structure;
        ] );
      ( "printing",
        [
          Alcotest.test_case "C-host structure" `Quick test_c_host_structure;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "loops and accesses" `Quick test_evaluator;
          Alcotest.test_case "host fill" `Quick
            test_host_fill_matches_c_formula;
        ] );
    ]
