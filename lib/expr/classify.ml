open Tc_tensor

type role = External | Internal
type operand = Out | Lhs | Rhs

type info = {
  expr : Ast.t;
  original : Ast.t;
  swapped : bool;
  externals : Index.t list;
  internals : Index.t list;
  lhs_externals : Index.t list;
  rhs_externals : Index.t list;
  out_fvi : Index.t;
  lhs_fvi : Index.t;
  rhs_fvi : Index.t;
}

let ( let* ) = Result.bind

let check_distinct (r : Ast.tensor_ref) =
  if Index.distinct r.indices then Ok ()
  else
    Error
      (Printf.sprintf "tensor %s repeats an index (%s)" r.name
         (Index.list_to_string r.indices))

let check_nonempty (r : Ast.tensor_ref) =
  if r.indices = [] then
    Error (Printf.sprintf "tensor %s has no indices" r.name)
  else Ok ()

let analyse (ast : Ast.t) =
  let* () = check_nonempty ast.out in
  let* () = check_nonempty ast.lhs in
  let* () = check_nonempty ast.rhs in
  let* () = check_distinct ast.out in
  let* () = check_distinct ast.lhs in
  let* () = check_distinct ast.rhs in
  let in_out = Index.Set.of_list ast.out.indices
  and in_lhs = Index.Set.of_list ast.lhs.indices
  and in_rhs = Index.Set.of_list ast.rhs.indices in
  let all = Index.Set.union in_out (Index.Set.union in_lhs in_rhs) in
  let occurrence_error =
    Index.Set.fold
      (fun i acc ->
        match acc with
        | Some _ -> acc
        | None ->
            let n =
              (if Index.Set.mem i in_out then 1 else 0)
              + (if Index.Set.mem i in_lhs then 1 else 0)
              + if Index.Set.mem i in_rhs then 1 else 0
            in
            if n = 2 then None
            else
              Some
                (Printf.sprintf
                   "index %c occurs in %d tensor(s); a contraction index must \
                    occur in exactly 2 of the 3 tensors"
                   i n))
      all None
  in
  let* () = match occurrence_error with Some e -> Error e | None -> Ok () in
  let out_fvi = List.hd ast.out.indices in
  (* Canonicalize so the lhs input carries the output's FVI. *)
  let swapped = not (Index.Set.mem out_fvi in_lhs) in
  let expr =
    if swapped then Ast.make ~out:ast.out ~lhs:ast.rhs ~rhs:ast.lhs else ast
  in
  let in_rhs = Index.Set.of_list expr.rhs.indices in
  let internals =
    List.filter (fun i -> Index.Set.mem i in_rhs) expr.lhs.indices
  in
  let lhs_externals =
    List.filter (fun i -> Index.Set.mem i in_out) expr.lhs.indices
  in
  let rhs_externals =
    List.filter (fun i -> Index.Set.mem i in_out) expr.rhs.indices
  in
  Ok
    {
      expr;
      original = ast;
      swapped;
      externals = expr.out.indices;
      internals;
      lhs_externals;
      rhs_externals;
      out_fvi;
      lhs_fvi = List.hd expr.lhs.indices;
      rhs_fvi = List.hd expr.rhs.indices;
    }

let analyse_exn ast =
  match analyse ast with Ok i -> i | Error e -> invalid_arg e

let role info i =
  if List.exists (Index.equal i) info.externals then External
  else if List.exists (Index.equal i) info.internals then Internal
  else raise Not_found

let reuse_tensor info i =
  match role info i with
  | Internal -> Out
  | External ->
      if List.exists (Index.equal i) info.lhs_externals then Rhs else Lhs

let all_indices info = info.externals @ info.internals
