(** Kernel configurations: the parameters of Table II.

    A mapping assigns every index of the contraction to one dimension of the
    GPU execution space, with a tile size:

    - external (output) indices go to the thread-block X/Y dimensions
      ([tbx]/[tby]), the per-thread register tile ([regx]/[regy]), or the
      grid ([grid], tile 1);
    - internal (contraction) indices all go to the serial step dimension
      [tbk]; the product of their tiles is the depth of the shared-memory
      slab loaded per step.

    X-side lists hold externals of the canonical lhs input, Y-side lists
    externals of the rhs input.  The head of [tbx] is always the output's
    FVI (the paper's coalesced-store constraint). *)

open Tc_tensor
open Tc_expr

type binding = { index : Index.t; tile : int }

type t = {
  tbx : binding list;
  regx : binding list;
  tby : binding list;
  regy : binding list;
  tbk : binding list;  (** all internal indices, enumeration order *)
  grid : Index.t list;  (** leftover externals, implicit tile 1 *)
}

val size_tbx : t -> int
(** Threads along X = product of [tbx] tiles. *)

val size_tby : t -> int
val size_regx : t -> int
val size_regy : t -> int

val size_tbk : t -> int
(** Step depth = product of [tbk] tiles. *)

val threads_per_block : t -> int

val tile_of : t -> Index.t -> int
(** Tile of any index under this mapping (1 for grid indices).
    @raise Not_found for foreign indices. *)

val smem_elems : t -> int
(** Elements of shared memory for the two input slabs:
    [(TBx*REGx + TBy*REGy) * TBk]. *)

val reg_elems_per_thread : t -> int
(** Output accumulators plus the two staging vectors:
    [REGx*REGy + REGx + REGy]. *)

val num_blocks : Problem.t -> t -> int
(** [prod over externals of ceil(N_i / tile_i)]. *)

val num_steps : Problem.t -> t -> int
(** [prod over internals of ceil(N_i / tile_i)]. *)

val validate : Problem.t -> t -> (unit, string) result
(** Checks structural well-formedness: every external in exactly one of
    tbx/regx/tby/regy/grid and on the correct side, every internal exactly
    once in tbk, and every tile is within [1, extent].  (That the head of
    [tbx] is the output FVI is an invariant of COGENT's {e enumeration},
    not of executability — the TC-like autotuner explores configurations
    without it.) *)

val fits : Problem.t -> t -> bool
(** [fits problem t] is [validate problem t = Ok ()], without building
    the error message: the serving layer asks it once per request, and a
    request whose extents are smaller than a cached tile is routine. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val compare_bindings : binding list -> binding list -> int
(** The per-dimension total order underlying {!compare} (length first,
    then elementwise index/tile) — exposed so the streaming
    {!Candidates} producer can pre-sort partial configurations into
    exactly the order {!compare} induces on full ones. *)

val pp : Format.formatter -> t -> unit
