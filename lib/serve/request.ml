open Tc_gpu
open Tc_expr

type t = {
  id : int;
  expr : string;
  sizes : Sizes.t;
  arch : Arch.t;
  precision : Precision.t;
}

let ( let* ) = Result.bind

let string_field name json =
  match Tc_obs.Json.member name json with
  | None -> Ok None
  | Some (Tc_obs.Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let required name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let of_line ~default ~id line =
  let* json =
    Result.map_error (fun m -> "bad JSON: " ^ m) (Tc_obs.Json.parse line)
  in
  let* expr = Result.bind (string_field "expr" json) (required "expr") in
  let* sizes_s = Result.bind (string_field "sizes" json) (required "sizes") in
  let* sizes = Sizes.parse sizes_s in
  let* arch =
    let* s = string_field "arch" json in
    match s with
    | None -> Ok default.Cogent.Ctx.arch
    | Some s -> (
        match Arch.by_name s with
        | Some a -> Ok a
        | None ->
            Error (Printf.sprintf "unknown device %S (p100|v100|a100|h100)" s))
  in
  let* precision =
    let* s = string_field "precision" json in
    match s with
    | None -> Ok default.Cogent.Ctx.precision
    | Some s -> Precision.of_string s
  in
  Ok { id; expr; sizes; arch; precision }

let load_file ~default path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go id acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | line ->
                let acc =
                  if String.trim line = "" then acc
                  else
                    match of_line ~default ~id line with
                    | Ok r -> Ok r :: acc
                    | Error m -> Error (id, m) :: acc
                in
                go (id + 1) acc
          in
          Ok (go 1 []))

let problem t = Problem.of_string t.expr ~sizes:(Sizes.to_list t.sizes)

let ctx ~default t =
  { default with Cogent.Ctx.arch = t.arch; precision = t.precision }
