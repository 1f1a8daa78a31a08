(** Dialect printers for the kernel IR.

    One kernel, three renderings:

    - {b CUDA}: [extern "C" __global__] kernel, [__shared__] staging,
      [__syncthreads()] barriers;
    - {b OpenCL}: [__kernel] with [__global]/[__local] qualifiers,
      [barrier(CLK_LOCAL_MEM_FENCE)], [long] as the 64-bit type, and the
      [cl_khr_fp64] pragma for FP64;
    - {b C host}: plain C that emulates the thread grid with loops — the
      flat block id becomes an outer loop and every barrier phase is wrapped
      in its own [t_y]/[t_x] thread loops, with the per-thread accumulator
      tile promoted to a block-wide array indexed by [tid].  The result
      compiles with any C/C++ compiler and computes the same contraction,
      which is what lets tests {e execute} generated kernels against
      [Contract_ref].

    All three walk the kernel's block schedule ([Ir.kernel.body]) with one
    walker; a dialect chooses only how a phase prints (inline on the GPU,
    inside [t_y]/[t_x] loops on the C host) and what each named fence
    prints:

    - {b CUDA}: [__syncthreads()] for the barrier, [__pipeline_commit()]
      after the pipelined prologue, and commit + [__pipeline_wait_prior(1)]
      + [__syncthreads()] after each prefetch; phases that the lowering
      marks [async] print their slab stores as [__pipeline_memcpy_async];
    - {b OpenCL}: [barrier(CLK_LOCAL_MEM_FENCE)] for the barrier and after
      the prologue, nothing after a prefetch (its copies are synchronous);
    - {b C host}: nothing — each phase runs to completion across the
      emulated thread grid. *)

type dialect = Cuda | Opencl | C_host

val dialect_name : dialect -> string
(** ["CUDA"], ["OpenCL"], ["C host"]. *)

val kernel : Buffer.t -> dialect -> Ir.kernel -> unit
(** Append the kernel definition in the given dialect (no header comment,
    no launcher) to the buffer.  Every expression is printed straight into
    it: no intermediate string per sub-expression or statement. *)

val c_main : Buffer.t -> Ir.kernel -> unit
(** Append a [main] for the C-host dialect: allocates the tensors at the spec's
    representative extents (overridable positionally on argv, [all_indices]
    order), fills the inputs with {!host_fill}, runs the kernel once and
    prints every output element with [%.17g] — one per line, FVI-first
    order — so a test can diff against [Contract_ref]. *)

val host_fill : tag:int -> int -> float
(** The deterministic fill the emitted C main uses:
    [value(tag, k) = ((2654435761 * k + 40503 * tag) land 0xFFFFFF) /
     16777216 - 0.5].  Reproducing it on the OCaml side gives bit-identical
    FP64 inputs for the numeric comparison. *)
