(** Plan cache.

    A runtime that issues many contractions (a coupled-cluster sweep, a
    training loop) should not re-run the configuration search per call:
    generated kernels take extents as runtime parameters, so one kernel per
    (contraction, device, precision, size class) suffices — §IV-B's
    "closest representative" selection, memoized.

    The size class rounds every extent to the nearest power of two, so
    nearby problem sizes share a plan while order-of-magnitude changes
    trigger a fresh search.

    Concurrency: lookups and inserts are mutex-guarded, and generation is
    {e single-flight} — when two domains race on one key, the second
    blocks on the first's in-flight generation instead of re-running the
    same expensive search, then returns the first's result as a hit.

    The callers are the bench figures and the perf plan-cold workload.
    Neither is seen to race on a key: plan-cold asks one request at a
    time on a fresh cache, and a full [bench/main.exe] run at 2 or 4 jobs
    records hits and misses but no [cogent.cache.inflight_waits].  The
    serving layer does not use this cache: it dedups a batch's keys
    before its fan-out and keeps each key's plan in its own session entry
    ({!Tc_serve.Serve}), so it calls {!Driver.run} directly and takes
    only {!key} from here. *)

open Tc_expr

type t

val create : unit -> t

val size_class : Problem.t -> string
(** The rounding key, e.g. ["a:16,b:16,c:64"] — exposed for tests. *)

val key : Ctx.t -> Problem.t -> string
(** The full memoization key:
    [contraction|arch|precision|size class], with [|schema] appended only
    when the context forces a kernel schema.  This is also the row key of
    the on-disk {!Tc_serve.Planstore}. *)

val find_or_generate_ctx : t -> Ctx.t -> Problem.t -> (Driver.t, Driver.error) result
(** Cached {!Driver.run}.  A hit may return a plan built for a {e nearby}
    representative size: the kernel text is identical in structure and
    valid for any extents; only the tile-selection inputs differed.
    Errors are returned, never cached: a later call with the same key
    retries the search.  Callers latched onto another domain's in-flight
    generation count as hits.  (This is the only lookup entry point — the
    historical optional-argument wrapper is gone; build a {!Ctx.t}.) *)

type stats = { entries : int; hits : int; misses : int }

val stats : t -> stats
(** [entries] counts completed slots (in-flight generations excluded),
    counted under the lock.  [misses] counts generations actually started
    (single-flight waiters count as [hits]). *)

val clear : t -> unit
