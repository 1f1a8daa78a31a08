(** GPU device models.

    The two devices of the paper's evaluation are provided with their
    published specifications, plus post-Volta devices (A100, H100) for the
    async-pipelined / tensor-core extension; arbitrary devices can be
    described for what-if studies.  All capacities are per-SM unless stated
    otherwise. *)

type t = {
  name : string;
  sms : int;  (** number of streaming multiprocessors *)
  cores_per_sm : int;
  clock_ghz : float;
  peak_gflops_fp64 : float;
  peak_gflops_fp32 : float;
  peak_gflops_fp16 : float;  (** SIMT (non-tensor-core) half-precision rate *)
  tensor_gflops_fp16 : float;
      (** dense MMA fp16 rate (0 on devices without tensor cores in this
          model — pre-Volta, and Volta's first-generation units are not
          modeled because the paper's evaluation predates the schema) *)
  tensor_gflops_tf32 : float;  (** dense MMA tf32 rate *)
  dram_bw_gbs : float;  (** peak DRAM bandwidth, GB/s *)
  dram_gb : float;
  smem_per_block : int;  (** shared-memory bytes usable by one thread block *)
  smem_per_sm : int;
  regs_per_sm : int;  (** 32-bit registers per SM *)
  regs_per_thread_max : int;
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  warp_size : int;
  transaction_bytes : int;  (** DRAM transaction granularity (128 B) *)
  kernel_launch_us : float;  (** fixed launch latency, microseconds *)
  fma_issue_eff : float;
      (** fraction of peak FMA issue a hand-scheduled inner loop sustains;
          higher on Volta, whose separate INT32 pipe overlaps address
          arithmetic with floating-point work *)
  mma_issue_eff : float;
      (** fraction of the dense tensor-core rate an MMA-fragment inner loop
          sustains (operand staging through SMEM and fragment loads cost
          issue slots the dense number ignores) *)
  async_copy : bool;
      (** whether the device has asynchronous GMEM→SMEM copies
          ([cp.async], Ampere and later) — the hardware gate for the
          pipelined kernel schemas *)
  l2_bytes : int;  (** L2 cache capacity (0 disables the cache model) *)
  l2_bw_ratio : float;
      (** L2-to-DRAM bandwidth ratio: reloads served from L2 cost this much
          less than DRAM traffic *)
}

val p100 : t
(** Nvidia Tesla P100 (Pascal, SXM2): 56 SMs, 64 cores/SM. *)

val v100 : t
(** Nvidia Tesla V100 (Volta, SXM2): 80 SMs, 64 cores/SM. *)

val a100 : t
(** Nvidia A100 (Ampere, SXM4): 108 SMs — not part of the paper's
    evaluation; the first device with [cp.async] and third-generation
    tensor cores (312 TFLOPS dense fp16, 156 TFLOPS tf32), so the
    pipelined/MMA schemas are priced against it. *)

val h100 : t
(** Nvidia H100 (Hopper, SXM5): 132 SMs, fourth-generation tensor cores
    (989 TFLOPS dense fp16).  TMA is approximated by the same async-copy
    overlap term as Ampere's [cp.async] (see DESIGN.md, substitutions). *)

val by_name : string -> t option
(** Case-insensitive lookup of ["p100"] / ["v100"] / ["a100"] / ["h100"]
    (or their architecture names pascal/volta/ampere/hopper). *)

val peak_gflops : t -> Precision.t -> float
(** SIMT peak for a precision (TF32 runs at the fp32 rate outside the
    tensor cores). *)

val tensor_gflops : t -> Precision.t -> float
(** Dense MMA peak for a tensor-core precision; 0 when the device has no
    tensor cores or the precision is not MMA-accelerated. *)
