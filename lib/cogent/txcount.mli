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

    The count is the one an element-by-element walk of that sweep gives.
    Most sweeps take a closed form in O(#axes): the leading axes that are
    dense in address (a unit first stride, each next stride equal to the
    row length so far, every cut before it full) merge into rows of
    length [L] whose in-range part is a contiguous prefix of [c]
    elements (rows of one element when the first stride is not 1).  If
    the next stride exceeds [c] and each later stride is at least the
    previous stride times its cut, every in-range row starts more than
    [c] addresses after the previous in-range row, so no row continues
    another's segment and all in-range rows cost the same.  The count is
    then [prod cut] over the remaining axes times [ceil(c / ept)] when
    [L] divides [width] (rows pack whole into waves), or times
    [floor(c / width) * ceil(width / ept) + ceil((c mod width) / ept)]
    when [width] divides [L] (every row starts a wave).

    Every other sweep (interleaved or touching rows, or row lengths that
    straddle waves at varying offsets) is walked by rows of the first
    axis: with a unit first-axis stride, each row's in-range prefix is
    one address run, split only at wave boundaries, and a masked tail or
    masked row costs O(1); a non-unit first-axis stride takes one step
    per in-range element. *)

type boundary = { axis : axis; full : int; rem : int }
(** One axis of a tiled tensor and its boundary patterns: [full]
    instances are swept at [axis.cut] and, when [rem > 0], one boundary
    instance at cut [rem]. *)

val boundary_sum : width:int -> ept:int -> boundary array -> int
(** [boundary_sum ~width ~ept bs] is the sum, over every full/partial
    boundary pattern of [bs] (each axis takes its full or, when
    [rem > 0], its partial cut; an axis with neither admits no pattern),
    of the product of the instance counts ([full] for a full axis, 1 for
    a partial one) times {!staged_sweep} of the pattern's axes — in
    closed form, or [-1] when the closed form does not apply.

    It applies when every pattern's sweep takes {!staged_sweep}'s closed
    form with one shape: the same merged leading prefix (every merged
    axis before the last takes only its full tile) and the stride
    conditions holding at each axis's largest cut (they then hold at
    every smaller one).  The sum then factors per axis: a unit-tile axis
    contributes its instance count, the merged prefix
    [full * g (P * cut) + g (P * rem)] ([g] prices an in-range row prefix,
    [P] the prefix's full tiles before its last axis), and every outer
    axis [full * cut + rem].  All terms are integers; the result is
    [-1] rather than a product above 2^53, so it equals the float sum of
    the per-pattern enumeration bit for bit. *)

val exact_mul : int -> int -> int
(** [exact_mul a b] is [a * b] for non-negative [a] and [b], or [-1] when either
    is negative or the product would pass 2^53: the bound below which a
    float sum of such counts is exact. *)
