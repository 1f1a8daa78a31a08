(** Configuration enumeration (Algorithm 2 of the paper).

    For each target thread-block dimension size in {!targets_tb} and each
    rotation of the candidate index order, external indices of the lhs input
    are greedily packed onto [TB_x] (always starting with the output's FVI),
    then leftover lhs externals onto [REG_x]; the rhs input's externals are
    packed the same way onto [TB_y]/[REG_y] (starting with the rhs FVI when
    it is external); internal indices are packed onto the serial [TB_k]
    dimension.  A full configuration is an element of the Cartesian product
    of the three partial configurations ({!Candidates} exposes that
    product); externals left over on either side fall through to the grid
    with tile size 1.

    Deviation from the paper (documented in DESIGN.md): when a side's
    indices are too small to reach even the smallest target (tiny tensors),
    the paper's algorithm would produce nothing; we keep the exhausted
    packing instead so that every contraction has at least one
    configuration. *)

open Tc_expr

val targets_tb : int list
(** Thread-block dimension targets, [{4; 8; 16}] (§IV-A3). *)

val targets_reg : int list
(** Register-tile dimension targets, [{1; 2; 4; 6; 8}] — the paper's
    [{2; 4; 6; 8}] plus 1 (no register tiling along that axis), needed when
    an input has no leftover external index. *)

val pack_greedy :
  target:int ->
  first:(Tc_tensor.Index.t * int) option ->
  candidates:(Tc_tensor.Index.t * int) list ->
  Mapping.binding list * bool
(** The greedy packing primitive of Algorithm 2 (lines 10–45): accumulate
    (index, extent) candidates onto one dimension until the product reaches
    [target]; the crossing index gets a clamped tile.  Returns the bindings
    and whether the target was reached.  Exposed for reuse by the fixed-
    heuristic NWChem-style baseline. *)

type side = { tb : Mapping.binding list; reg : Mapping.binding list }
(** Partial configuration of one input side: thread-block bindings plus
    register-tile bindings. *)

val enumerate_side :
  Problem.t ->
  fvi:Tc_tensor.Index.t option ->
  externals:Tc_tensor.Index.t list ->
  side list
(** All TB/REG packings of one input's externals ([fvi] forced first when
    it is one of them).  Distinct as pairs — one factor of the Cartesian
    product {!Candidates} exposes. *)

val enumerate_tbk :
  Problem.t -> internals:Tc_tensor.Index.t list -> Mapping.binding list list
(** All packings of the internal indices onto the serial TB_k dimension,
    completed: internals the greedy packing did not reach are appended
    with tile 1, so every returned list covers every internal index.
    Completion can make distinct packings equal — callers that need a
    duplicate-free product must dedup (see {!Candidates}). *)

val naive_space_size : Problem.t -> float
(** Size of the unpruned search space per the paper's §IV formula
    [|mapping| * |tilesize|] — e.g. 3,981,312 for Eq. 1. *)
