(** A fixed pool of OCaml 5 domains for the pipeline's embarrassingly
    parallel fan-outs (cost ranking, measured refinement, autotuner
    fitness, TTGT variant scoring, per-entry bench generation).

    Zero dependencies beyond the stdlib ([Domain] + [Mutex]/[Condition] —
    no domainslib).  The design contract, which every caller in this
    repository relies on:

    {ul
    {- {b Determinism}: {!map} is order-preserving and
       {!fold_best} reduces in index order, so as long as the per-item
       function is pure, results are bit-identical for every job count —
       parallelism changes wall time, never output.}
    {- {b Sequential degradation}: at one job the pool spawns no
       domains and runs the plain [List.map] path.}
    {- {b Exception transparency}: if items raise, the exception of the
       {e lowest-indexed} failing item is re-raised in the caller (with
       its backtrace), again independent of scheduling.}
    {- {b Re-entrancy}: an item may itself call {!map}
       (nested fan-outs happen naturally: bench entry -> driver ->
       cost rank).  The claiming caller always helps execute its own
       batch, so nesting cannot deadlock even with zero idle workers.}
    {- {b Trace propagation}: the caller's full ambient {!Tc_obs.Trace}
       state — the installed context {e and} the open request scope
       ({!Tc_obs.Trace.with_request}) — is captured at submit time and
       re-installed around items that run on worker domains, so spans
       recorded inside a parallel section land in the same sink as
       sequential ones and stay attributed to the submitting request.}}

    Pool activity is observable in {!Tc_obs.Metrics.global}:
    [par.pool.tasks] (items executed), [par.pool.batches] (map calls
    that actually fanned out), [par.pool.waits] (times a caller blocked
    waiting for in-flight items), and [par.pool.busy_s] (the
    {!Tc_obs.Clock} seconds each participating domain spent claiming and
    running items, summed over domains). *)

val default_jobs : unit -> int
(** The job count of the process-wide pool every call below runs on: the
    calling domain plus [default_jobs () - 1] persistent worker domains,
    spawned on first use ([1] spawns none).  It is {!set_default_jobs}'s
    value if called, else [COGENT_JOBS] from the environment, else
    [Domain.recommended_domain_count () - 1], min 1. *)

val set_default_jobs : int -> unit
(** Override the default pool size (the CLI's [--jobs]).  If the default
    pool already exists with a different size it is shut down and
    recreated lazily. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map].  See the module contract. *)

val map_fold :
  map:('a -> 'b) ->
  fold:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
(** Deterministic chunked reduction: [map] runs on the pool
    (order-preserving, like {!map}) and [fold] then reduces the results
    {e sequentially in index order} on the calling domain.  As long as
    [map] is pure, the result is bit-identical at any job count — the
    fan-out shape of the streaming planner pipeline, whose per-chunk
    candidate heaps and prune tallies merge in chunk order.  {!fold_best}
    is the argmax/argmin special case. *)

val fold_best :
  better:('b -> 'b -> bool) -> ('a -> 'b) -> 'a list -> 'b option
(** [fold_best ~better f xs] evaluates [f] on every element (in
    parallel) and then reduces {e in index order}, keeping the incumbent
    unless [better candidate incumbent] — the deterministic argmax/argmin
    shape used by measured refinement and TTGT variant selection.  With a
    strict [better], ties keep the earliest element, exactly like the
    sequential left fold it replaces.  [None] iff [xs] is empty. *)
