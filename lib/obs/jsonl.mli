(** Versioned JSONL files, the on-disk form of the plan store and the
    audit ledger: line 1 is the header [{"schema":S}], every further line
    one row.  Writes are atomic (tmp + rename); loads are tolerant.  A
    missing file loads as empty and a wrong or missing header is an
    error.  A corrupt row (a crashed writer's truncated tail) is skipped
    with a stderr notice naming its line, a bump of the
    [PREFIX.corrupt_rows] counter and its line number on the
    [PREFIX.corrupt_line] gauge.

    Verbatim rows: {!load} returns each row's {!span} in the file, and
    {!save} can copy a row back from those bytes instead of encoding it
    again.  The bytes are not held in between: [save] reads the spans
    back from the file it is about to replace, in one forward pass when
    they ascend, and copies a span only while its bytes still match the
    digest taken at load, so a row of a file another writer replaced is
    encoded afresh.  Neither direction reads the whole file into one
    string. *)

type span = { offset : int; length : int; digest : Digest.t }
(** Where a row's line sat in the file it was loaded from: byte offset,
    length without the newline, and the MD5 digest of those bytes. *)

val load :
  kind:string ->
  row:string ->
  metrics:string ->
  schema:string ->
  string ->
  (Json.t -> ('a, string) result) ->
  (('a * span) list, string) result
(** [load ~kind ~row ~metrics ~schema path decode] is every well-formed
    row of [path] with its span, in file order.  [kind] (["plan store"])
    names the file in errors ("empty plan store", "not a S store": its
    last word), [row] (["plan-store row"]) a row in the skip notice, and
    [metrics] is the instruments' [PREFIX]. *)

type written = { rows : int; bytes : int; copied : int }
(** What {!save} wrote: rows, bytes including the header, and how many
    rows were copied verbatim (the other [rows - copied] were encoded). *)

val save :
  schema:string ->
  ?copy:('a -> span option) ->
  string ->
  ('a -> Json.t) ->
  'a list ->
  written
(** [save ~schema ~copy path encode rows] writes the header and one line
    per row, creating [path]'s directory if needed.  A row for which
    [copy] names a span of the current [path] whose bytes still match
    its digest is copied from there as it is; every other row is
    [encode]d.  Without [copy], every row is encoded.
    @raise Sys_error when the directory cannot be created or written. *)
