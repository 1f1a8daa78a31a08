(** Versioned JSONL files, the on-disk form of the plan store and the
    audit ledger: line 1 is the header [{"schema":S}], every further line
    one row.  Writes are atomic (tmp + rename); loads are tolerant.  A
    missing file loads as empty and a wrong or missing header is an
    error.  A corrupt row (a crashed writer's truncated tail) is skipped
    with a stderr notice naming its line, a bump of the
    [PREFIX.corrupt_rows] counter and its line number on the
    [PREFIX.corrupt_line] gauge. *)

val load :
  kind:string ->
  row:string ->
  metrics:string ->
  schema:string ->
  string ->
  (Json.t -> ('a, string) result) ->
  ('a list, string) result
(** [load ~kind ~row ~metrics ~schema path decode] is every well-formed
    row of [path], in file order.  [kind] (["plan store"]) names the file
    in errors ("empty plan store", "not a S store": its last word),
    [row] (["plan-store row"]) a row in the skip notice, and [metrics] is
    the instruments' [PREFIX]. *)

val save : schema:string -> string -> ('a -> Json.t) -> 'a list -> unit
(** [save ~schema path encode rows] writes the header and one line per
    row, creating [path]'s directory if needed.
    @raise Sys_error when the directory cannot be created or written. *)
