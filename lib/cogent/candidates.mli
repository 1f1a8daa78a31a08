(** The candidate space of Algorithm 2 — the enumeration half of the
    planner.

    This module precomputes the three {e sorted} product components once
    (X-side packings, Y-side packings, duplicate-free completed TB_k
    packings) and exposes the product without building it.  A
    configuration is a coordinate [(x, y, k)] of the product:
    {!x_side}, {!y_side} and {!tbk} give the components and {!mapping}
    builds one configuration on demand.  {!Pipeline} scans these
    coordinates from per-side tables and builds a [Mapping.t] only for
    the few candidates it keeps.

    Coordinates in lexicographic order visit every structurally valid
    configuration once, in strictly increasing {!Mapping.compare} order —
    exactly the deduplicated set the materialized enumeration of
    [test/oracle.ml] builds (a property test in [test/test_cogent.ml]
    locks the equivalence).  The X-side range is the planner's
    deterministic unit of parallel work: its boundaries depend only on
    the problem, never on the job count. *)

open Tc_expr

type t

val create : Problem.t -> t
(** Precompute the sorted product components (runs Algorithm 2's greedy
    packing enumeration; cheap — the product itself is not built). *)

val count : t -> int
(** Number of configurations in the product, i.e. the [enumerated]
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

val mapping : t -> int -> int -> int -> Mapping.t
(** [mapping t x y k]: the configuration at coordinate [(x, y, k)]; its
    grid is the externals neither side maps, in output order. *)
