open Tc_gpu

let check = Alcotest.check

let occ req = Occupancy.calculate Arch.v100 req

let test_precision () =
  check Alcotest.int "fp64 bytes" 8 (Precision.bytes Precision.FP64);
  check Alcotest.int "fp32 bytes" 4 (Precision.bytes Precision.FP32);
  check Alcotest.int "fp64 elems/transaction" 16
    (Precision.elems_per_transaction Precision.FP64);
  check Alcotest.int "fp32 elems/transaction" 32
    (Precision.elems_per_transaction Precision.FP32);
  check Alcotest.string "cuda type" "double" (Precision.cuda_type Precision.FP64);
  check Alcotest.int "fp16 bytes" 2 (Precision.bytes Precision.FP16);
  check Alcotest.int "fp16 elems/transaction" 64
    (Precision.elems_per_transaction Precision.FP16);
  check Alcotest.bool "fp16 is tensor-core" true
    (Precision.tensor_core Precision.FP16);
  check Alcotest.bool "tf32 is tensor-core" true
    (Precision.tensor_core Precision.TF32);
  check Alcotest.bool "fp64 is not" false (Precision.tensor_core Precision.FP64);
  let parsed = Alcotest.(result string string) in
  List.iter
    (fun (name, p) ->
      check parsed name (Ok (Precision.to_string p))
        (Result.map Precision.to_string (Precision.of_string name)))
    [
      ("fp16", Precision.FP16); ("half", Precision.FP16);
      ("tf32", Precision.TF32); ("fp32", Precision.FP32);
      ("float", Precision.FP32); ("single", Precision.FP32);
      ("fp64", Precision.FP64); ("double", Precision.FP64);
    ];
  check parsed "unknown name"
    (Error {|unknown precision "quad" (fp16|tf32|fp32|fp64)|})
    (Result.map Precision.to_string (Precision.of_string "quad"))

let test_arch_lookup () =
  check Alcotest.bool "p100" true (Arch.by_name "P100" = Some Arch.p100);
  check Alcotest.bool "volta alias" true (Arch.by_name "volta" = Some Arch.v100);
  check Alcotest.bool "ampere alias" true (Arch.by_name "ampere" = Some Arch.a100);
  check Alcotest.bool "hopper alias" true (Arch.by_name "hopper" = Some Arch.h100);
  check Alcotest.bool "unknown" true (Arch.by_name "b100" = None)

let test_tensor_rates () =
  check Alcotest.bool "v100 has no cp.async" true (not Arch.v100.Arch.async_copy);
  check Alcotest.bool "a100 has cp.async" true Arch.a100.Arch.async_copy;
  check (Alcotest.float 1.0) "a100 dense fp16 MMA" 312000.0
    (Arch.tensor_gflops Arch.a100 Precision.FP16);
  check (Alcotest.float 1.0) "a100 dense tf32 MMA" 156000.0
    (Arch.tensor_gflops Arch.a100 Precision.TF32);
  check (Alcotest.float 1.0) "no MMA rate for fp64" 0.0
    (Arch.tensor_gflops Arch.a100 Precision.FP64);
  check (Alcotest.float 1.0) "p100 has no tensor cores" 0.0
    (Arch.tensor_gflops Arch.p100 Precision.FP16)

let test_arch_specs () =
  check Alcotest.int "P100 SMs" 56 Arch.p100.Arch.sms;
  check Alcotest.int "V100 SMs" 80 Arch.v100.Arch.sms;
  check Alcotest.int "A100 SMs" 108 Arch.a100.Arch.sms;
  check (Alcotest.float 1.0) "V100 peak DP" 7800.0
    (Arch.peak_gflops Arch.v100 Precision.FP64);
  check (Alcotest.float 1.0) "P100 peak SP" 10600.0
    (Arch.peak_gflops Arch.p100 Precision.FP32);
  check Alcotest.int "transaction bytes" 128 Arch.v100.Arch.transaction_bytes

let test_occupancy_full () =
  (* 256 threads, no smem, few regs: thread-limited at 2048/256 = 8 blocks *)
  let r =
    occ { Occupancy.threads_per_block = 256; smem_per_block = 0; regs_per_thread = 32 }
  in
  check Alcotest.int "8 blocks" 8 r.Occupancy.active_blocks_per_sm;
  check (Alcotest.float 1e-9) "100% occupancy" 1.0 r.Occupancy.occupancy

let test_occupancy_smem_limited () =
  (* 96 KB smem per SM on V100, 40 KB per block -> 2 blocks *)
  let r =
    occ
      { Occupancy.threads_per_block = 128; smem_per_block = 40 * 1024;
        regs_per_thread = 32 }
  in
  check Alcotest.int "2 blocks" 2 r.Occupancy.active_blocks_per_sm;
  check Alcotest.bool "smem limiter" true
    (r.Occupancy.limiter = Occupancy.Shared_memory)

let test_occupancy_reg_limited () =
  (* 255 regs * 256 threads = 65280: exactly 1 block per SM *)
  let r =
    occ { Occupancy.threads_per_block = 256; smem_per_block = 0; regs_per_thread = 255 }
  in
  check Alcotest.int "1 block" 1 r.Occupancy.active_blocks_per_sm;
  check Alcotest.bool "regs limiter" true (r.Occupancy.limiter = Occupancy.Registers)

let test_occupancy_invalid () =
  let r =
    occ { Occupancy.threads_per_block = 2048; smem_per_block = 0; regs_per_thread = 32 }
  in
  check Alcotest.int "no blocks" 0 r.Occupancy.active_blocks_per_sm;
  check Alcotest.bool "invalid" true (r.Occupancy.limiter = Occupancy.Invalid);
  check Alcotest.bool "fits is false" false
    (Occupancy.fits Arch.v100
       { Occupancy.threads_per_block = 2048; smem_per_block = 0; regs_per_thread = 32 })

let test_occupancy_partial_warp () =
  (* 20 threads still allocate one full warp *)
  let r =
    occ { Occupancy.threads_per_block = 20; smem_per_block = 0; regs_per_thread = 32 }
  in
  check Alcotest.int "warps = blocks" r.Occupancy.active_blocks_per_sm
    r.Occupancy.active_warps_per_sm

let test_occupancy_block_cap () =
  let r =
    occ { Occupancy.threads_per_block = 32; smem_per_block = 0; regs_per_thread = 16 }
  in
  (* 2048/32 = 64 would exceed the 32-block cap *)
  check Alcotest.int "capped at 32 blocks" 32 r.Occupancy.active_blocks_per_sm

let occupancy_bounded =
  QCheck.Test.make ~count:300 ~name:"occupancy in [0,1] and monotone limits"
    QCheck.(triple (int_range 1 1024) (int_range 0 49152) (int_range 0 255))
    (fun (threads, smem, regs) ->
      let r =
        occ
          { Occupancy.threads_per_block = threads; smem_per_block = smem;
            regs_per_thread = regs }
      in
      r.Occupancy.occupancy >= 0.0 && r.Occupancy.occupancy <= 1.0
      && r.Occupancy.active_blocks_per_sm >= 0
      && r.Occupancy.active_blocks_per_sm <= Arch.v100.Arch.max_blocks_per_sm)

let () =
  Alcotest.run "tc_gpu"
    [
      ( "precision",
        [ Alcotest.test_case "bytes and transactions" `Quick test_precision ] );
      ( "arch",
        [
          Alcotest.test_case "lookup" `Quick test_arch_lookup;
          Alcotest.test_case "published specs" `Quick test_arch_specs;
          Alcotest.test_case "tensor rates and async copies" `Quick
            test_tensor_rates;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "thread-limited" `Quick test_occupancy_full;
          Alcotest.test_case "smem-limited" `Quick test_occupancy_smem_limited;
          Alcotest.test_case "register-limited" `Quick test_occupancy_reg_limited;
          Alcotest.test_case "invalid request" `Quick test_occupancy_invalid;
          Alcotest.test_case "partial warp rounding" `Quick
            test_occupancy_partial_warp;
          Alcotest.test_case "block cap" `Quick test_occupancy_block_cap;
          Gen.to_alcotest occupancy_bounded;
        ] );
    ]
