type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- serialization ---- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    (* Shortest decimal form that parses back to exactly [f], so
       serialize/parse round-trips bit-exactly. *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* Keep floats recognizably floats on re-parse. *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ ".0"

let rec write ~indent ~level buf j =
  let nl lvl =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * lvl) ' ')
    end
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_into buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun k item ->
          if k > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          write ~indent ~level:(level + 1) buf item)
        items;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun k (name, value) ->
          if k > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          escape_into buf name;
          Buffer.add_char buf ':';
          if indent then Buffer.add_char buf ' ';
          write ~indent ~level:(level + 1) buf value)
        fields;
      nl level;
      Buffer.add_char buf '}'

let render ~indent j =
  let buf = Buffer.create 256 in
  write ~indent ~level:0 buf j;
  Buffer.contents buf

let to_string j = render ~indent:false j
let to_string_pretty j = render ~indent:true j
let pp fmt j = Format.pp_print_string fmt (to_string j)

(* ---- parsing ---- *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf code =
    (* Encode one Unicode scalar value as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some 'u' ->
              advance ();
              let code = hex4 () in
              let code =
                (* Surrogate pair. *)
                if code >= 0xD800 && code <= 0xDBFF && !pos + 6 <= n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let low = hex4 () in
                  0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
                end
                else code
              in
              utf8_of_code buf code;
              go ()
          | _ -> error "bad escape")
      | Some c -> advance (); Buffer.add_char buf c; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if text = "" then error "expected number";
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((key, value) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((key, value) :: acc))
            | _ -> error "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (value :: acc)
            | Some ']' -> advance (); List (List.rev (value :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing input";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let field name json =
  match member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_string = function String s -> Ok s | _ -> Error "expected a string"
let as_int = function Int n -> Ok n | _ -> Error "expected an int"
let as_bool = function Bool b -> Ok b | _ -> Error "expected a bool"
let as_list = function List l -> Ok l | _ -> Error "expected a list"

let as_float j =
  match to_float j with Some f -> Ok f | None -> Error "expected a number"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      Result.bind (f x) (fun y ->
          Result.map (fun ys -> y :: ys) (map_result f rest))
