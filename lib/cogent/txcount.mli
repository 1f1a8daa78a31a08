(** DRAM-transaction counting for the emitted cooperative sweeps.

    This module is the single definition of the memory-transaction
    convention shared by the simulator's prediction
    ({!Tc_sim.Simkernel.transactions_exact}) and the interpreter's
    measurement ({!Interp.measure}) — both sides count the {e same}
    hardware model, so a disagreement between them can only come from the
    combinatorics around it (boundary-pattern enumeration, foreign-block
    multipliers), which is exactly what the cross-validation in
    [Tc_profile] checks.

    The convention mirrors what the generated CUDA executes:

    - a staged load is a cooperative sweep
      [for (l = tid; l < elems; l += threads)] over the {e full padded}
      tile volume, in the operand's own layout order (FVI fastest); a
      store is one warp-synchronous wave of all threads per register
      coordinate;
    - a {e wave} is one iteration of that sweep: [width] consecutive
      positions, issued together.  Out-of-range lanes (the guard
      [ok ? load : 0.0] in the emitted kernel) issue no memory access;
    - within a wave, the in-range accesses coalesce into maximal
      address-contiguous segments; each segment costs
      [ceil(len / ept)] 128-byte transactions ([ept] = elements per
      transaction for the precision).  Segment bases are assumed
      line-aligned, and there is no coalescing across waves or across
      discontiguous segments. *)

type axis = { tile : int; cut : int; stride : int }
(** One axis of a staged tile, in sweep order (first axis fastest):
    [tile] is the padded tile length the sweep enumerates, [cut] the
    in-range prefix ([min tile (extent - base)], so [cut = tile] away
    from boundaries), and [stride] the element stride of the axis in the
    tensor being accessed. *)

val staged_sweep : width:int -> ept:int -> axis array -> int
(** [staged_sweep ~width ~ept axes] is the number of DRAM transactions
    issued by one cooperative sweep over the padded tile [axes] executed
    by waves of [width] threads.  Positions enumerate the full
    [prod tile] volume (first axis fastest); a position is in range iff
    every local coordinate is below its [cut]; in-range positions access
    element address [sum (local * stride)] relative to the tile base
    (bases are line-aligned, so only address deltas matter).

    The count is the one an element-by-element walk of that sweep gives,
    but the walk goes by rows of the first axis: with a unit first-axis
    stride, each row's in-range prefix is one address run, split only at
    wave boundaries, and a masked tail or masked row costs O(1).  A
    non-unit first-axis stride falls back to one step per in-range
    element. *)
