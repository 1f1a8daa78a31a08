(** Streaming candidate producer — the enumeration half of the fused
    planner pipeline.

    {!Enumerate.enumerate} materializes the full Cartesian product of
    partial configurations as a [Mapping.t list] and deduplicates it
    through a [Set].  This module precomputes the three {e sorted} product
    components once (X-side packings, Y-side packings, duplicate-free
    completed TB_k packings) and exposes the product without building it:

    {ul
    {- {e factored}: a configuration is a coordinate [(x, y, k)] of
       the product.  {!x_side}, {!y_side} and {!tbk} give the components
       and {!mapping} builds one configuration on demand.  {!Pipeline}
       scans these coordinates from per-side tables and builds a
       [Mapping.t] only for the few candidates it keeps;}
    {- {e streamed}: {!iter} visits exactly the configurations of
       [Enumerate.enumerate], in the same strictly increasing
       {!Mapping.compare} order — no intermediate list, no set (a
       property test in [test/test_cogent.ml] locks the equivalence).
       Coordinates in lexicographic order are that same order;}
    {- {e chunked}: {!iter_chunk} exposes the outer (X-side) loop as the
       pipeline's deterministic parallel chunks: chunk boundaries depend
       only on the problem, never on the job count, so per-chunk prune
       tallies and candidate heaps merge bit-identically at any
       parallelism (see [Tc_par.Pool.map_fold]).}} *)

open Tc_expr

type t

val create : Problem.t -> t
(** Precompute the sorted product components (runs Algorithm 2's greedy
    packing enumeration; cheap — the product itself is not built). *)

val count : t -> int
(** Number of configurations the stream yields — equals
    [List.length (Enumerate.enumerate problem)], i.e. the [enumerated]
    figure of {!Prune.stats}. *)

val num_chunks : t -> int
(** Number of chunks (X-side packings).  At least 1. *)

val num_y : t -> int
(** Number of Y-side packings. *)

val num_tbk : t -> int
(** Number of distinct completed TB_k packings.  [count t] is
    [num_chunks t * num_y t * num_tbk t]. *)

val x_side : t -> int -> Enumerate.side
(** [x_side t x]: the [x]-th X-side packing (lhs externals), ascending. *)

val y_side : t -> int -> Enumerate.side
(** [y_side t y]: the [y]-th Y-side packing (rhs externals), ascending. *)

val tbk : t -> int -> Mapping.binding list
(** [tbk t k]: the [k]-th TB_k packing, covering every internal index. *)

val grid : t -> int -> int -> Tc_tensor.Index.t list
(** [grid t x y]: the externals neither side maps, in output order — the
    grid of every configuration with these two sides. *)

val mapping : t -> grid:Tc_tensor.Index.t list -> int -> int -> int -> Mapping.t
(** [mapping t ~grid x y k]: the configuration at coordinate [(x, y, k)],
    given [grid = grid t x y]. *)

val iter_chunk : t -> int -> (Mapping.t -> unit) -> unit
(** [iter_chunk t k f] applies [f] to chunk [k]'s configurations in
    ascending {!Mapping.compare} order.  Chunks partition the stream:
    concatenating chunks [0 .. num_chunks t - 1] is exactly {!iter}. *)

val iter : t -> (Mapping.t -> unit) -> unit
(** All configurations, ascending, duplicate-free. *)

val to_list : t -> Mapping.t list
(** Materialize the stream (testing/debugging; equals
    [Enumerate.enumerate]). *)
