(** Minimal JSON tree, serializer and parser.

    Deliberately dependency-free (the observability layer must not drag a
    JSON library into every consumer of the generator).  The serializer is
    deterministic: object fields are emitted in the order given, floats use
    the shortest ["%g"] rendering that parses back to the same value (so
    serialize/parse round-trips), and strings are escaped per RFC 8259.  The
    parser accepts the JSON this module (and any standard writer)
    produces; it reads every request line, plan-store row and ledger row,
    and lets tests validate exported traces and metrics without external
    tooling. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for humans. *)

val parse : string -> (t, string) result
(** Parse one JSON value in one pass; trailing garbage is an error.
    Numbers without [.], [e] or [E] parse as [Int] (as [Float] past the
    int range), everything else as [Float].  [\u] escapes decode to
    UTF-8, a high surrogate followed by an escaped low one as one code
    point.  Never raises: malformed input is [Error "WHAT at offset N"]
    ("unexpected end of input", "bad \\u escape", ...). *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to the first occurrence of [k];
    [None] for missing keys or non-objects. *)

val to_float : t -> float option
(** Numeric accessor: [Int] and [Float] both convert. *)

val pp : Format.formatter -> t -> unit

(** {1 Decoding}

    The accessors every row codec (plan store, audit ledger, bench
    reports) shares: [Error "missing field \"NAME\""], or
    ["expected a string"] (int, bool, list, number) on a type mismatch. *)

val field : string -> t -> (t, string) result
val as_string : t -> (string, string) result
val as_int : t -> (int, string) result
val as_bool : t -> (bool, string) result
val as_list : t -> (t list, string) result
val as_float : t -> (float, string) result  (** [Int] or [Float] *)

val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
(** Map in order, stopping at the first [Error]. *)
