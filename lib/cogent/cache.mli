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
    same expensive search, then returns the first's result as a hit. *)

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

val install : t -> string -> Driver.t -> unit
(** Pre-populate an entry under an externally computed {!key} (the
    serving layer's warm-store load).  First insert wins; neither the hit
    nor the miss counter moves. *)

val entries : t -> (string * Driver.t) list
(** Every cached entry, sorted by key — deterministic, for flushing to a
    {!Tc_serve.Planstore}.  In-flight generations are not included. *)

val mem : t -> string -> bool
(** True iff a {e completed} entry is cached under this key. *)

type stats = { entries : int; hits : int; misses : int }

val stats : t -> stats
(** [entries] counts completed slots (in-flight generations excluded) and
    is kept as a running count, so [stats] costs O(1) at any cache size.
    [misses] counts generations actually started (single-flight waiters
    count as [hits]). *)

val clear : t -> unit
