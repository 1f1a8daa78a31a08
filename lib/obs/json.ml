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

(* One pass over [s] with a mutable cursor.  Lookahead reads the byte at
   the cursor after a bounds check (no option per peek); a string without
   escapes is one [String.sub]; an integer of at most 18 digits is
   accumulated in place; lists and fields are consed in order, with no
   reversal (the recursion is as deep as the longest list or nesting;
   past the stack limit that is an error too).  Every failure is a [Bad]
   caught below, so [parse] never raises. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg =
    raise_notrace (Bad (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if at c then incr pos else error (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    let rec matches k = k = l || (s.[!pos + k] = word.[k] && matches (k + 1)) in
    if !pos + l <= n && matches 0 then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf code =
    (* Encode one code point (lone surrogates included) as UTF-8. *)
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
  (* The four hex digits at [p] (in bounds), or -1. *)
  let hex4_at p =
    let rec go k acc =
      if k = 4 then acc
      else
        match s.[p + k] with
        | '0' .. '9' as c -> go (k + 1) ((acc * 16) + Char.code c - 48)
        | 'a' .. 'f' as c -> go (k + 1) ((acc * 16) + Char.code c - 87)
        | 'A' .. 'F' as c -> go (k + 1) ((acc * 16) + Char.code c - 55)
        | _ -> -1
    in
    go 0 0
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = hex4_at !pos in
    if v < 0 then error "bad \\u escape";
    pos := !pos + 4;
    v
  in
  (* First index at or after [p] holding a quote or a backslash, or [n]. *)
  let rec plain p =
    if p >= n then n
    else match String.unsafe_get s p with '"' | '\\' -> p | _ -> plain (p + 1)
  in
  let escaped buf =
    (* The cursor is just past a backslash. *)
    if !pos >= n then error "bad escape";
    let c = s.[!pos] in
    match c with
    | '"' | '\\' | '/' -> incr pos; Buffer.add_char buf c
    | 'n' -> incr pos; Buffer.add_char buf '\n'
    | 't' -> incr pos; Buffer.add_char buf '\t'
    | 'r' -> incr pos; Buffer.add_char buf '\r'
    | 'b' -> incr pos; Buffer.add_char buf '\b'
    | 'f' -> incr pos; Buffer.add_char buf '\012'
    | 'u' ->
        incr pos;
        let code = hex4 () in
        (* A high surrogate followed by an escaped low one is a pair;
           anything else decodes unit by unit. *)
        let low =
          if code >= 0xD800 && code <= 0xDBFF && !pos + 6 <= n
             && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
          then hex4_at (!pos + 2)
          else -1
        in
        if low >= 0xDC00 && low <= 0xDFFF then begin
          pos := !pos + 6;
          utf8_of_code buf
            (0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00)))
        end
        else utf8_of_code buf code
    | _ -> error "bad escape"
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain start in
    if stop < n && s.[stop] = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      let rec go from =
        let stop = plain from in
        Buffer.add_substring buf s from (stop - from);
        pos := stop;
        if stop >= n then error "unterminated string"
        else if s.[stop] = '"' then incr pos
        else begin
          incr pos;
          escaped buf;
          go !pos
        end
      in
      go start;
      Buffer.contents buf
    end
  in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let parse_number () =
    let start = !pos in
    (* Fast path: [-]d{1,18} — cannot overflow — ends the number. *)
    let first = if at '-' then start + 1 else start in
    let stop = ref first and acc = ref 0 in
    while
      !stop < n
      && match String.unsafe_get s !stop with '0' .. '9' -> true | _ -> false
    do
      acc := (!acc * 10) + Char.code (String.unsafe_get s !stop) - 48;
      incr stop
    done;
    let digits = !stop - first in
    if digits > 0 && digits <= 18 && not (!stop < n && is_num_char s.[!stop])
    then begin
      pos := !stop;
      Int (if first > start then - !acc else !acc)
    end
    else begin
      while !pos < n && is_num_char s.[!pos] do
        incr pos
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
    end
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then error "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            if at ',' then begin
              incr pos;
              (key, value) :: fields ()
            end
            else if at '}' then begin
              incr pos;
              [ (key, value) ]
            end
            else error "expected ',' or '}'"
          in
          Obj (fields ())
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else
          let rec items () =
            let value = parse_value () in
            skip_ws ();
            if at ',' then begin
              incr pos;
              value :: items ()
            end
            else if at ']' then begin
              incr pos;
              [ value ]
            end
            else error "expected ',' or ']'"
          in
          List (items ())
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing input";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception Stack_overflow -> Error "input too deep to parse"

let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Obj fields -> assoc key fields | _ -> None

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

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error e -> Error e)
  in
  go [] l
