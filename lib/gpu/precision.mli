(** Floating-point precisions the generated kernels can target.  The TCCG
    comparison of Figs. 4–5 uses double precision; the Tensor-Comprehensions
    comparison of Figs. 6–8 uses single precision.  FP16 and TF32 are the
    tensor-core precisions of the A100/H100 extension: TF32 is stored as a
    32-bit float (it is an {e execution} format — the MMA unit truncates
    the mantissa), FP16 as a 2-byte half. *)

type t = FP16 | TF32 | FP32 | FP64

val bytes : t -> int
val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}, also accepting the C aliases ["double"],
    ["float"]/["single"] and ["half"]. *)

val cuda_type : t -> string
(** The C scalar type emitted in kernels: ["half"], ["float"] (for both
    TF32 and FP32 — TF32 is a compute format over float storage) or
    ["double"]. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val elems_per_transaction : t -> int
(** Elements per 128-byte DRAM transaction: 64 for FP16, 32 for FP32/TF32,
    16 for FP64. *)

val tensor_core : t -> bool
(** Whether the MMA units accelerate this precision (fp16, tf32). *)
