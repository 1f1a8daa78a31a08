type t = Classic | Pipelined | Pipelined_mma

let to_string = function
  | Classic -> "classic"
  | Pipelined -> "pipelined"
  | Pipelined_mma -> "pipelined-mma"

let of_string s =
  match String.lowercase_ascii s with
  | "classic" | "sync" -> Some Classic
  | "pipelined" | "async" -> Some Pipelined
  | "pipelined-mma" | "mma" | "tensor" -> Some Pipelined_mma
  | _ -> None

let pp fmt t = Format.pp_print_string fmt (to_string t)
let all = [ Classic; Pipelined; Pipelined_mma ]
let smem_factor = function Classic -> 1 | Pipelined | Pipelined_mma -> 2
let extra_regs = function Classic -> 0 | Pipelined -> 8 | Pipelined_mma -> 16
let pipelined = function Classic -> false | Pipelined | Pipelined_mma -> true
let mma = function Pipelined_mma -> true | Classic | Pipelined -> false

let fragment_shape = function
  | Precision.FP16 -> Some (16, 16, 16)
  | Precision.TF32 -> Some (16, 16, 8)
  | Precision.FP32 | Precision.FP64 -> None

let admits_precision t prec =
  match t with
  | Classic | Pipelined -> true
  | Pipelined_mma -> Option.is_some (fragment_shape prec)
