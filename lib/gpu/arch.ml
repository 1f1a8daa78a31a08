type t = {
  name : string;
  sms : int;
  cores_per_sm : int;
  clock_ghz : float;
  peak_gflops_fp64 : float;
  peak_gflops_fp32 : float;
  peak_gflops_fp16 : float;
  tensor_gflops_fp16 : float;
  tensor_gflops_tf32 : float;
  dram_bw_gbs : float;
  dram_gb : float;
  smem_per_block : int;
  smem_per_sm : int;
  regs_per_sm : int;
  regs_per_thread_max : int;
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  warp_size : int;
  transaction_bytes : int;
  kernel_launch_us : float;
  fma_issue_eff : float;
  mma_issue_eff : float;
  async_copy : bool;
  l2_bytes : int;
  l2_bw_ratio : float;
}

let p100 =
  {
    name = "P100";
    sms = 56;
    cores_per_sm = 64;
    clock_ghz = 1.48;
    peak_gflops_fp64 = 5300.0;
    peak_gflops_fp32 = 10600.0;
    peak_gflops_fp16 = 21200.0;
    tensor_gflops_fp16 = 0.0;
    tensor_gflops_tf32 = 0.0;
    dram_bw_gbs = 732.0;
    dram_gb = 16.0;
    smem_per_block = 48 * 1024;
    smem_per_sm = 64 * 1024;
    regs_per_sm = 65536;
    regs_per_thread_max = 255;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    warp_size = 32;
    transaction_bytes = 128;
    kernel_launch_us = 5.0;
    fma_issue_eff = 0.68;
    mma_issue_eff = 0.0;
    async_copy = false;
    l2_bytes = 4 * 1024 * 1024;
    l2_bw_ratio = 2.5;
  }

let v100 =
  {
    name = "V100";
    sms = 80;
    cores_per_sm = 64;
    clock_ghz = 1.53;
    peak_gflops_fp64 = 7800.0;
    peak_gflops_fp32 = 15700.0;
    peak_gflops_fp16 = 31400.0;
    tensor_gflops_fp16 = 0.0;
    tensor_gflops_tf32 = 0.0;
    dram_bw_gbs = 900.0;
    dram_gb = 16.0;
    smem_per_block = 48 * 1024;
    smem_per_sm = 96 * 1024;
    regs_per_sm = 65536;
    regs_per_thread_max = 255;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    warp_size = 32;
    transaction_bytes = 128;
    kernel_launch_us = 4.0;
    fma_issue_eff = 0.86;
    mma_issue_eff = 0.0;
    async_copy = false;
    l2_bytes = 6 * 1024 * 1024;
    l2_bw_ratio = 3.0;
  }

let a100 =
  {
    name = "A100";
    sms = 108;
    cores_per_sm = 64;
    clock_ghz = 1.41;
    peak_gflops_fp64 = 9700.0;
    peak_gflops_fp32 = 19500.0;
    peak_gflops_fp16 = 78000.0;
    tensor_gflops_fp16 = 312000.0;
    tensor_gflops_tf32 = 156000.0;
    dram_bw_gbs = 1555.0;
    dram_gb = 40.0;
    smem_per_block = 48 * 1024;
    smem_per_sm = 164 * 1024;
    regs_per_sm = 65536;
    regs_per_thread_max = 255;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    warp_size = 32;
    transaction_bytes = 128;
    kernel_launch_us = 3.0;
    fma_issue_eff = 0.88;
    mma_issue_eff = 0.75;
    async_copy = true;
    l2_bytes = 40 * 1024 * 1024;
    l2_bw_ratio = 3.5;
  }

let h100 =
  {
    name = "H100";
    sms = 132;
    cores_per_sm = 128;
    clock_ghz = 1.59;
    peak_gflops_fp64 = 34000.0;
    peak_gflops_fp32 = 67000.0;
    peak_gflops_fp16 = 134000.0;
    tensor_gflops_fp16 = 989000.0;
    tensor_gflops_tf32 = 495000.0;
    dram_bw_gbs = 3350.0;
    dram_gb = 80.0;
    smem_per_block = 48 * 1024;
    smem_per_sm = 228 * 1024;
    regs_per_sm = 65536;
    regs_per_thread_max = 255;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    warp_size = 32;
    transaction_bytes = 128;
    kernel_launch_us = 3.0;
    fma_issue_eff = 0.90;
    mma_issue_eff = 0.70;
    async_copy = true;
    l2_bytes = 50 * 1024 * 1024;
    l2_bw_ratio = 3.5;
  }

let by_name s =
  match String.lowercase_ascii s with
  | "p100" | "pascal" -> Some p100
  | "v100" | "volta" -> Some v100
  | "a100" | "ampere" -> Some a100
  | "h100" | "hopper" -> Some h100
  | _ -> None

let peak_gflops t = function
  | Precision.FP64 -> t.peak_gflops_fp64
  | Precision.FP32 | Precision.TF32 -> t.peak_gflops_fp32
  | Precision.FP16 -> t.peak_gflops_fp16

let tensor_gflops t = function
  | Precision.FP16 -> t.tensor_gflops_fp16
  | Precision.TF32 -> t.tensor_gflops_tf32
  | Precision.FP32 | Precision.FP64 -> 0.0
