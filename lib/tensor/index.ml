type t = char

let is_valid c = c >= 'a' && c <= 'z'
let compare = Char.compare
let equal = Char.equal
let pp fmt c = Format.pp_print_char fmt c
let to_string c = String.make 1 c

let of_char c =
  if is_valid c then c
  else invalid_arg (Printf.sprintf "Index.of_char: %C is not in a..z" c)

module Set = Set.Make (Char)
module Map = Map.Make (Char)

let list_pp fmt l = List.iter (Format.pp_print_char fmt) l

let list_of_string s =
  List.init (String.length s) (fun i -> of_char s.[i])

let list_to_string l = String.init (List.length l) (List.nth l)

(* Index lists are a handful long: a scan beats building a set. *)
let rec distinct = function
  | [] -> true
  | i :: tl -> (not (List.exists (equal i) tl)) && distinct tl
