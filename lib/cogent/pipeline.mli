(** The planner: Algorithm 2's enumeration, the §IV-A rules and the
    Algorithm-3 ranking as one candidate scan with branch-and-bound cost
    pruning.  Every planning caller ({!Driver}, the ablations, the
    serving layer) goes through {!search}.

    [search] scans the product X-side × Y-side × TB_k of {!Candidates} as
    coordinates, without materializing it.  Per search it builds one
    table per input side (TB and REG sizes, block product, output-FVI
    tile and, per TB_k packing, the input's contiguous run and FVI tile)
    plus the TB_k sizes and step counts; per (x, y) pair it derives
    threads, registers, blocks and the output-store transactions.  The
    innermost TB_k loop then runs the §IV-A rules as {!Prune.verdict},
    one int function, and the Algorithm-3 cost in the float operation
    order of {!Cost.transactions}, abandoned as soon as a partial sum
    exceeds the cost of the current K-th best (a bounded best-heap of
    (key, cost) pairs, where the key packs the coordinate as
    [((x * num_y) + y) * num_tbk + k]; ordered by (cost, key), which is
    (cost, {!Mapping.compare}) order because coordinate order is
    mapping order).  A [Mapping.t] is built only for the final top-K —
    or, under a budget, for the fed survivors — never per heap entrant.

    The materialized reference — enumerate every configuration, filter
    it with {!Prune.check}, cost and sort the survivors — lives in
    [test/oracle.ml].  Property tests in [test/test_cogent.ml] lock, on
    the four benchmark targets, with and without the performance rules:

    {ul
    {- the ranked result equals the first [topk] entries of the oracle's
       full ranking — mappings and costs bit-identical;}
    {- {!Prune.stats} is structurally equal (same canonical reject
       tally, relaxation behaves identically);}
    {- with [budget], the first [max 1 budget] survivors in candidate
       order are ranked in full, and [degraded] is set iff survivors
       were dropped.}}

    Determinism: the parallel fan-out is over fixed slices of the X-side
    range ({!Candidates.num_chunks}) via {!Tc_par.Pool.map_fold}.  Slice
    boundaries depend only on the problem, per-slice tallies/heaps merge
    in slice order, and the heap order is total — so every field of
    [outcome], including [bound_aborted], is bit-identical at any job
    count. *)

open Tc_gpu
open Tc_expr

type outcome = {
  ranked : (Mapping.t * float) list;
      (** top-[topk] candidates, ascending (cost, {!Mapping.compare}) *)
  stats : Prune.stats;  (** rule-based reject statistics, full stream *)
  bound_aborted : int;
      (** prune survivors discarded by the cost bound instead of a §IV-A
          rule: their (possibly partial) transaction count already
          exceeded the current top-K — distinct from [stats.pruned] *)
  degraded : bool;  (** budget truncation dropped survivors *)
}

val search :
  ?performance:bool ->
  ?budget:int ->
  topk:int ->
  Arch.t ->
  Precision.t ->
  Problem.t ->
  outcome
(** One fused search.  [performance:false] streams with hardware rules
    only (the ablation hook for what §IV-A2's rules buy).  [topk] is
    clamped to the candidate count, so [topk:max_int] ranks every
    survivor with no bound aborts.  [budget] bounds the survivors ranked
    (serving-layer worst case): the first [max 1 budget] in candidate
    order are ranked exactly, with no bound aborts.
    [ranked] is empty iff no configuration survives even relaxation.
    Emits no metrics or spans — the caller ({!Driver}) owns
    observability, outside the parallel section. *)
