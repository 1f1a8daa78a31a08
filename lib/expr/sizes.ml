open Tc_tensor

type t = int Index.Map.t

let make l =
  (* Insert in index order so that equal size maps are structurally
     identical whatever order the caller listed them in — the serving
     layer's plan store relies on rebuilt problems comparing equal with
     (=) to the originals. *)
  let rec go acc = function
    | [] -> Ok acc
    | (i, n) :: _ when n <= 0 ->
        Error (Printf.sprintf "Sizes: extent of %c must be positive" i)
    | (i, _) :: _ when Index.Map.mem i acc ->
        Error (Printf.sprintf "Sizes: duplicate extent for %c" i)
    | (i, n) :: rest -> go (Index.Map.add i n acc) rest
  in
  go Index.Map.empty
    (List.stable_sort (fun (a, _) (b, _) -> Index.compare a b) l)

let of_list l = match make l with Ok t -> t | Error m -> invalid_arg m

let uniform indices n = of_list (List.map (fun i -> (i, n)) indices)

let parse s =
  let items =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let parse_item item =
    match String.index_opt item '=' with
    | None -> Error (Printf.sprintf "expected index=extent, got %S" item)
    | Some k ->
        let name = String.trim (String.sub item 0 k) in
        let value =
          String.trim (String.sub item (k + 1) (String.length item - k - 1))
        in
        if String.length name <> 1 || not (Index.is_valid name.[0]) then
          Error (Printf.sprintf "invalid index name %S" name)
        else begin
          match int_of_string_opt value with
          | Some n when n > 0 -> Ok (name.[0], n)
          | _ -> Error (Printf.sprintf "invalid extent %S for index %s" value name)
        end
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
        match parse_item item with
        | Ok p -> go (p :: acc) rest
        | Error e -> Error e)
  in
  Result.bind (go [] items) make

let extent t i = Index.Map.find i t
let extent_opt t i = Index.Map.find_opt i t
let covers t indices = List.for_all (fun i -> Index.Map.mem i t) indices
let product t indices = List.fold_left (fun acc i -> acc * extent t i) 1 indices
let to_list t = Index.Map.bindings t

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
    (fun fmt (i, n) -> Format.fprintf fmt "%c=%d" i n)
    fmt (to_list t)
