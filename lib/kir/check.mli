(** Static analyses over kernels: resource derivation and bank conflicts.

    The planner predicts the resources a configuration will use
    ([Plan.smem_bytes], [Plan.regs_per_thread]); these checks re-derive the
    same quantities from what the lowered kernel {e actually declares}, so
    the prediction and the emitted code can never silently drift apart. *)

val smem_bytes : Ir.kernel -> int
(** Bytes of shared memory the kernel declares: sum of slab elements times
    the scalar width. *)

val reg_estimate : Ir.kernel -> int
(** Per-thread register estimate from the declared register arrays
    (accumulator tile + staging vectors), using the planner's convention:
    one 32-bit register per 4 bytes of live scalar (at least one — fp16
    values still occupy whole registers) plus a fixed overhead of 32 for
    addressing, plus the schema's bookkeeping registers
    ({!Tc_gpu.Schema.extra_regs}: in-flight copy addresses for the
    pipelined schemas, fragment metadata for MMA). *)

val occupancy_request : Ir.kernel -> Tc_gpu.Occupancy.request
(** The kernel's resource footprint as an occupancy request (registers
    clamped to the 255 hardware ceiling, as the planner does). *)

val cross_validate :
  expected_smem:int -> expected_regs:int -> Ir.kernel -> unit
(** @raise Invalid_argument if the IR-derived shared-memory bytes or
    register estimate disagree with the planner's prediction. *)

val staging_conflict_ways : Ir.kernel -> int
(** Worst-case shared-memory bank-conflict degree of the staging phase:
    simulates the first warp (lanes 0..31) with the IR evaluator, running
    the block schedule at step 0 up to and including its first Stage phase, groups simultaneous SMEM writes, and returns the
    maximum number of distinct addresses mapping to one of the 32 banks in
    any group (element-granularity banks; 1 = conflict-free; identical
    addresses broadcast).  COGENT's slab layouts make staging writes
    consecutive in [tid], so lowered kernels must report 1. *)
