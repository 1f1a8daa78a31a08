(** The {e unpruned} configuration space a general-purpose autotuner (such
    as Tensor Comprehensions' genetic tuner) explores.

    A genome assigns every external index a dimension (thread-block X/Y or
    grid — restricted only by which input the index belongs to, a
    structural fact) and a tile size, and every internal index a TBk tile.
    Unlike COGENT's enumeration there is no FVI anchoring, no greedy target
    packing, no coalescing or occupancy rules — and, crucially, no
    outer-product register tiling, which the polyhedral mapper of TC's
    generation did not perform: most sampled points are legal but slow,
    exactly the haystack a black-box tuner must search.  Tile sizes come
    from a power-of-two menu, as is typical of polyhedral autotuner
    presets. *)

open Tc_tensor
open Tc_expr

type dim = Tbx | Tby | Grid
(** No register dimensions: TC's polyhedral mapper did not register-tile,
    so a decoded mapping's [regx] and [regy] are always empty. *)

type gene = { index : Index.t; dim : dim; tile : int }
(** For internal indices [dim] is ignored (always the serial TBk). *)

type genome = { externals : gene list; internals : gene list }

val random : Random.State.t -> Problem.t -> genome
val mutate : Random.State.t -> Problem.t -> genome -> genome
(** Re-samples one gene (dimension and/or tile). *)

val crossover : Random.State.t -> genome -> genome -> genome
(** Uniform crossover, gene by gene. *)

val decode : Problem.t -> genome -> Cogent.Mapping.t option
(** [None] if the genome is structurally invalid (never happens for
    genomes built by this module, but decoding is defensive). *)

val size : Problem.t -> float
(** Number of points in this space. *)
