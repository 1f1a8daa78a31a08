(** Analytical DRAM-transaction cost model (Algorithm 3).

    For a candidate configuration the model estimates the number of global
    memory transactions needed to load both input slabs every step and to
    store the output once, assuming 128-byte aligned transactions (16 FP64 /
    32 FP32 elements).  Coalescing is captured by the length of contiguous
    runs inside a staged hyper-rectangular tile: a run ends at the first
    index whose tile does not cover its full extent. *)

open Tc_tensor
open Tc_gpu
open Tc_expr

val contiguous_run : Problem.t -> Mapping.t -> Index.t list -> int
(** [contiguous_run p m indices] is the length of a maximal contiguous run
    of global-memory elements inside the tile of a tensor whose layout is
    [indices] (FVI first): the product of leading tile sizes up to and
    including the first partially-tiled index. *)

val run_of :
  tile:(Index.t -> int) -> extent:(Index.t -> int) -> Index.t list -> int
(** {!contiguous_run} over any tile and extent lookup — the form the
    planner's per-side tables use. *)

val store_run : Problem.t -> Mapping.t -> int
(** Contiguous-run length for output stores: only [TB_x]-mapped indices
    vary within one store instruction, so the run stops at the first output
    index not mapped to [TB_x]. *)

(** {2 Integer terms}

    The per-tile transaction counts {!transactions} is built from.  The
    streaming pipeline ({!Pipeline}) computes them from its per-side
    tables and scales them exactly as {!transactions} does:
    [lhs = float lhs_tile *. float steps *. float blocks], likewise
    [rhs], [out = float out_block *. float blocks], and the total
    [lhs +. rhs +. out], left to right. *)

val sweep_transactions : width:int -> run:int -> ept:int -> int
(** Transactions for one cooperative sweep of [width] threads over
    segments of [run] contiguous elements, [ept] elements per
    transaction.  The output store of one block costs
    [REGx * REGy * sweep_transactions ~width:(TBx * TBy) ~run:store_run]. *)

val tile_transactions : width:int -> elems:int -> run:int -> ept:int -> int
(** Transactions to stage one [elems]-element input tile per step:
    ceil([elems]/[width]) sweeps, none wider than the tile. *)

type breakdown = {
  lhs : float;  (** transactions to load the lhs input over all steps/blocks *)
  rhs : float;
  out : float;  (** transactions to store the output *)
}

val transactions : Precision.t -> Problem.t -> Mapping.t -> breakdown
val total : Precision.t -> Problem.t -> Mapping.t -> float

val bytes_moved : Precision.t -> Problem.t -> Mapping.t -> float
(** [total * 128]. *)

type tensor_charge = {
  tensor : string;  (** ["A"], ["B"] or ["C"] *)
  transactions : float;  (** what the model charged over the whole kernel *)
  bytes : float;  (** [transactions * 128] *)
  run : int;  (** contiguous-run length inside one staged tile *)
  coalescing : float;
      (** fully-coalesced transactions over charged transactions for one
          tile, in (0, 1]; 1.0 = every transaction fully utilized *)
}

type explanation = {
  charges : tensor_charge list;  (** A, B, C in that order *)
  total_transactions : float;
  total_bytes : float;
  steps : int;
  blocks : int;
  ept : int;  (** elements per 128-byte transaction at this precision *)
}

val explain : Precision.t -> Problem.t -> Mapping.t -> explanation
(** Itemized Algorithm-3 charge sheet for one configuration: where the
    model thinks the DRAM traffic goes and how efficient each tensor's
    access pattern is.  [total_transactions] equals {!total} exactly. *)
