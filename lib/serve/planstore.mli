(** Versioned on-disk plan store.

    A store directory holds one [plans.jsonl]: line 1 is the schema header
    [{"schema":"cogent-planstore/1"}], every further line a row
    [{"key":K,"entry":E}] where [K] is the {!Cogent.Cache.key} and [E] a
    serialized {!Cogent.Driver.t}.  The serving engine loads the store
    into its cache at session open and flushes the cache at close, so a
    warm restart re-generates nothing.

    The codec stores the contraction as its TCCG string plus extents and
    {e reconstructs} the plan with [Plan.make], which recomputes the model
    cost — costs are a pure function of (problem, mapping, device,
    precision), and {!Tc_obs.Json} renders floats with the shortest
    representation that parses back to the same value, so a save→load
    round trip is bit-exact (locked by a property test).  The plan's
    kernel schema rides along as a ["kernel_schema"] tag, decoded
    leniently: rows written before schemas existed load as classic.

    Verbatim rows: a save copies each row loaded from the store file
    back as the bytes it was read from, and encodes only the rows this
    lifetime generated.  A loaded entry never changes in the cache
    ({!Cogent.Cache.install} keeps the first entry), so its bytes still
    describe it.  The bytes are not held in memory: {!read} records each
    row's span and digest ({!Tc_obs.Jsonl.span}), and {!save} reads each
    span back from the file and copies it only while it still holds the
    same bytes.  A row is encoded again when the file was replaced since
    the load, and when the row lacks a field this version writes
    (["kernel_schema"], ["bound_aborted"]), which upgrades it.  A
    hand-formatted row (other spacing or field order) is written back as
    it is, not renormalised.  Every load parses and classifies each
    distinct ["expr"] once and keeps one copy of each distinct mapping,
    shared across its rows.

    Failure ladder ({!Tc_obs.Jsonl}): a missing file is an empty store; a
    wrong or missing schema header rejects the whole store (a later
    writer owns that format); a corrupt row is skipped, counted on the
    [cogent.serve.planstore.corrupt_rows] metric, and everything after it
    still loads. *)

val schema : string
(** ["cogent-planstore/1"]. *)

val file : dir:string -> string
(** [dir/plans.jsonl]. *)

val entry_to_json : Cogent.Driver.t -> Tc_obs.Json.t

val entry_of_json : Tc_obs.Json.t -> (Cogent.Driver.t, string) result
(** Inverse of {!entry_to_json}; [Error] on any malformed field. *)

type origin
(** Where each row of one {!read} sits in the store file: for each key,
    the entry decoded from its first current-format row, with that row's
    span and digest. *)

val read :
  dir:string -> ((string * Cogent.Driver.t) list * origin, string) result
(** Rows in file order, and their origin for {!save}.  [Ok ([], _)] when
    the file does not exist; [Error] when the header is missing or
    carries the wrong schema; corrupt rows are skipped (see above).
    Records a [planstore.load] span with [rows] and [bytes] (of the
    decoded rows' lines). *)

val load : dir:string -> ((string * Cogent.Driver.t) list, string) result
(** The rows of {!read}. *)

val save :
  ?origin:origin -> dir:string -> (string * Cogent.Driver.t) list -> unit
(** Write header plus one row per entry, creating [dir] if needed.  An
    entry [origin] maps its key to, physically, is copied verbatim from
    the file (see above); every other entry is encoded.  The file is
    replaced atomically (write-to-temp, rename).  Records a
    [planstore.save] span with [rows], [bytes], [copied] and [encoded],
    and adds the last two to the [cogent.serve.planstore.rows_copied]
    and [.rows_encoded] counters.
    @raise Sys_error when the directory cannot be created or written. *)
