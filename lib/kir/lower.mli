(** The single lowering of Algorithm 1 onto the kernel IR.

    [kernel spec] builds the four-phase contraction kernel for one
    configuration: cooperative GMEM→SMEM staging of the two input slabs,
    SMEM→register vector loads, register-tile outer products over the serial
    TB_k sweep, and guarded coalesced stores.  Tile sizes and thread-block
    shape are baked in as compile-time constants; tensor extents stay
    runtime parameters ([N_i]), exactly as in the string emitter this
    replaces.  All dialect choices are deferred to {!Print}.

    The [spec.schema] field selects the block schedule ([Ir.kernel.body]).
    Classic is the synchronous ladder: per step, decode the step's
    internal bases, stage, barrier, compute, barrier.  Under a pipelined
    schema the SMEM slabs are doubled and rotate between two halves: a
    prologue stages tile 0 into half 0, then each step prefetches tile
    [stage_step = step + 1] (guarded by [step + 1 < num_steps]) into the
    half [buf_stage = stage_step mod 2] while the compute phase reads the
    half [buf_comp = step mod 2] — one barrier per step, preceded by the
    fence that retires the prefetch.  Those three variables are ordinary
    declarations in the schedule, and only the pipelined Stage phases are
    marked [async]. *)

val kernel : Ir.spec -> Ir.kernel
