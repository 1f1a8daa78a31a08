open Tc_tensor

type t = { info : Classify.info; sizes : Sizes.t }

let ( let* ) = Result.bind

let volume info sizes =
  List.fold_left
    (fun acc i -> acc *. float_of_int (Sizes.extent sizes i))
    1.0
    (Classify.all_indices info)

let max_volume = Float.ldexp 1.0 53

let of_info info sizes =
  let missing =
    List.filter
      (fun i -> Sizes.extent_opt sizes i = None)
      (Classify.all_indices info)
  in
  match missing with
  | [] when volume info sizes > max_volume ->
      Error
        (Printf.sprintf
           "iteration space too large: the product of all extents (%.3g) \
            exceeds 2^53"
           (volume info sizes))
  | [] -> Ok { info; sizes }
  | l ->
      Error
        (Printf.sprintf "no extent given for index(es) %s"
           (Index.list_to_string l))

let make ast sizes =
  let* info = Classify.analyse ast in
  of_info info sizes

let make_exn ast sizes =
  match make ast sizes with Ok t -> t | Error e -> invalid_arg e

let analyse s =
  match Parser.parse s with
  | Error e -> Error (Format.asprintf "%a" Parser.pp_error e)
  | Ok ast -> Classify.analyse ast

let of_string s ~sizes =
  let* sizes = Sizes.make sizes in
  let* info = analyse s in
  of_info info sizes

let of_string_exn s ~sizes =
  match of_string s ~sizes with Ok t -> t | Error e -> invalid_arg e

let info t = t.info
let sizes t = t.sizes
let extent t i = Sizes.extent t.sizes i

let flops t = 2.0 *. volume t.info t.sizes

let shape_of t indices = Shape.of_indices ~sizes:t.sizes indices
let out_shape t = shape_of t t.info.Classify.expr.Ast.out.Ast.indices
let lhs_shape t = shape_of t t.info.Classify.expr.Ast.lhs.Ast.indices
let rhs_shape t = shape_of t t.info.Classify.expr.Ast.rhs.Ast.indices
let out_elems t = Shape.numel (out_shape t)

let pp fmt t =
  Format.fprintf fmt "@[<h>%a with %a@]" Ast.pp t.info.Classify.original
    Sizes.pp t.sizes
