open Tc_tensor

type error = { position : int; message : string }

let pp_error fmt e =
  Format.fprintf fmt "parse error at offset %d: %s" e.position e.message

let fail position message = Error { position; message }

(* ---- TCCG form: three '-'-separated groups of index letters. ---- *)

let parse_tccg s =
  let parts = String.split_on_char '-' (String.trim s) in
  match parts with
  | [ c; a; b ] ->
      let check_group offset name g =
        if g = "" then fail offset (name ^ " index group is empty")
        else
          let bad = ref None in
          String.iteri
            (fun i ch ->
              if (not (Index.is_valid ch)) && !bad = None then
                bad := Some (offset + i, ch))
            g;
          match !bad with
          | Some (pos, ch) ->
              fail pos (Printf.sprintf "invalid index character %C" ch)
          | None -> Ok (Index.list_of_string g)
      in
      let off_c = 0 in
      let off_a = String.length c + 1 in
      let off_b = off_a + String.length a + 1 in
      Result.bind (check_group off_c "output" c) (fun ci ->
          Result.bind (check_group off_a "left input" a) (fun ai ->
              Result.bind (check_group off_b "right input" b) (fun bi ->
                  Ok
                    (Ast.make
                       ~out:{ Ast.name = "C"; indices = ci }
                       ~lhs:{ Ast.name = "A"; indices = ai }
                       ~rhs:{ Ast.name = "B"; indices = bi }))))
  | _ ->
      fail 0
        (Printf.sprintf "expected three '-'-separated index groups, got %d"
           (List.length parts))

(* ---- Einstein form ---- *)

type state = { input : string; mutable pos : int }

exception Syntax of error

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.input
    && (match st.input.[st.pos] with ' ' | '\t' | '\n' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st ch =
  skip_ws st;
  match peek st with
  | Some c when c = ch -> st.pos <- st.pos + 1
  | Some c ->
      raise (Syntax { position = st.pos;
                      message = Printf.sprintf "expected %C, found %C" ch c })
  | None ->
      raise (Syntax { position = st.pos;
                      message = Printf.sprintf "expected %C, found end of input" ch })

let parse_name st =
  skip_ws st;
  let start = st.pos in
  let is_name_char c =
    (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  while st.pos < String.length st.input && is_name_char st.input.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then
    raise (Syntax { position = start; message = "expected a tensor name" });
  String.sub st.input start (st.pos - start)

let parse_index_list st =
  expect st '[';
  let indices = ref [] in
  let rec loop () =
    skip_ws st;
    match peek st with
    | Some ']' -> st.pos <- st.pos + 1
    | Some ',' ->
        st.pos <- st.pos + 1;
        loop ()
    | Some c when Index.is_valid c ->
        st.pos <- st.pos + 1;
        indices := c :: !indices;
        loop ()
    | Some c ->
        raise (Syntax { position = st.pos;
                        message = Printf.sprintf "unexpected %C in index list" c })
    | None ->
        raise (Syntax { position = st.pos; message = "unterminated index list" })
  in
  loop ();
  List.rev !indices

let parse_tensor_ref st =
  let name = parse_name st in
  let indices = parse_index_list st in
  if indices = [] then
    raise (Syntax { position = st.pos; message = "empty index list" });
  { Ast.name; indices }

let parse_einstein s =
  let st = { input = s; pos = 0 } in
  try
    let out = parse_tensor_ref st in
    expect st '=';
    let lhs = parse_tensor_ref st in
    expect st '*';
    let rhs = parse_tensor_ref st in
    skip_ws st;
    (match peek st with
    | Some ';' -> st.pos <- st.pos + 1
    | _ -> ());
    skip_ws st;
    if st.pos <> String.length s then
      fail st.pos "trailing characters after contraction"
    else Ok (Ast.make ~out ~lhs ~rhs)
  with Syntax e -> Error e

let parse s =
  if String.contains s '=' then parse_einstein s else parse_tccg s
