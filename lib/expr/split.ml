open Tc_tensor

let fresh_index problem =
  let used =
    Index.Set.of_list (Classify.all_indices (Problem.info problem))
  in
  let rec go c =
    if c > 'z' then None
    else if Index.Set.mem c used then go (Char.chr (Char.code c + 1))
    else Some c
  in
  go 'a'

let split problem i ~factor =
  let info = Problem.info problem in
  if not (List.exists (Index.equal i) (Classify.all_indices info)) then
    Error (Printf.sprintf "index %c is not part of the contraction" i)
  else
    let extent = Problem.extent problem i in
    if factor < 2 || factor >= extent then
      Error (Printf.sprintf "factor %d outside [2, %d)" factor extent)
    else if extent mod factor <> 0 then
      Error
        (Printf.sprintf "factor %d does not divide the extent %d of %c" factor
           extent i)
    else begin
      match fresh_index problem with
      | None -> Error "no fresh index letter available"
      | Some slow ->
          let insert indices =
            List.concat_map
              (fun x -> if Index.equal x i then [ i; slow ] else [ x ])
              indices
          in
          let rewrite (r : Ast.tensor_ref) =
            { r with Ast.indices = insert r.indices }
          in
          let orig = info.Classify.original in
          let ast =
            Ast.make ~out:(rewrite orig.Ast.out) ~lhs:(rewrite orig.Ast.lhs)
              ~rhs:(rewrite orig.Ast.rhs)
          in
          let sizes =
            Problem.sizes problem
            |> Index.Map.add i factor
            |> Index.Map.add slow (extent / factor)
          in
          Result.map (fun p -> (p, slow)) (Problem.make ast sizes)
    end

type applied = {
  original : Index.t;
  fast_extent : int;
  slow : Index.t;
  slow_extent : int;
}

(* The extent of the fast part [auto] splits off. *)
let fast = 16

let auto problem =
  (* A side is register-starved when it has a single external index: the
     thread-block dimension consumes it and nothing is left to
     register-tile. *)
  let candidates p =
    let info = Problem.info p in
    List.filter_map
      (fun side -> match side with [ i ] -> Some i | _ -> None)
      [ info.Classify.lhs_externals; info.Classify.rhs_externals ]
    |> List.filter (fun i ->
           let n = Problem.extent p i in
           n >= 2 * fast && n mod fast = 0)
  in
  let rec go p acc =
    match candidates p with
    | [] -> (p, List.rev acc)
    | i :: _ -> (
        match split p i ~factor:fast with
        | Error _ -> (p, List.rev acc)
        | Ok (p', slow) ->
            go p'
              ({
                 original = i;
                 fast_extent = fast;
                 slow;
                 slow_extent = Problem.extent p' slow;
               }
              :: acc))
  in
  go problem []
