type t = FP16 | TF32 | FP32 | FP64

let bytes = function FP16 -> 2 | TF32 -> 4 | FP32 -> 4 | FP64 -> 8

let to_string = function
  | FP16 -> "fp16"
  | TF32 -> "tf32"
  | FP32 -> "fp32"
  | FP64 -> "fp64"

let of_string = function
  | "fp64" | "double" -> Ok FP64
  | "fp32" | "float" | "single" -> Ok FP32
  | "fp16" | "half" -> Ok FP16
  | "tf32" -> Ok TF32
  | s -> Error (Printf.sprintf "unknown precision %S (fp16|tf32|fp32|fp64)" s)

let cuda_type = function
  | FP16 -> "half"
  | TF32 -> "float"
  | FP32 -> "float"
  | FP64 -> "double"

let pp fmt t = Format.pp_print_string fmt (to_string t)
let equal a b = a = b
let elems_per_transaction t = 128 / bytes t
let tensor_core = function FP16 | TF32 -> true | FP32 | FP64 -> false
