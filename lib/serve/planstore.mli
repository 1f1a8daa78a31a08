(** Versioned on-disk plan store.

    A store directory holds one [plans.jsonl]: line 1 is the schema header
    [{"schema":"cogent-planstore/1"}], every further line a row
    [{"key":K,"entry":E}] where [K] is the {!Cogent.Cache.key} and [E] the
    served plan of a {!Cogent.Driver.t}.  The serving engine loads the
    store into its session's entries at open and saves them at close,
    so a warm restart re-generates nothing.

    A row holds what a warm session serves, not the search that found
    it.  [E] has six fields: the contraction as its TCCG string
    (["expr"]) plus extents (["sizes"]), ["arch"], ["precision"],
    ["kernel_schema"] and ["mapping"].  Decoding
    {e reconstructs} the plan with [Plan.make], which validates the
    mapping and recomputes the model cost — costs are a pure function of
    (problem, mapping, device, precision), and {!Tc_obs.Json} renders
    floats with the shortest representation that parses back to the same
    value, so a save→load round trip gives the saved plan bit-exactly
    (locked by a property test).  The kernel schema is checked feasible
    for the mapping again; a row without ["kernel_schema"] (written
    before schemas existed) loads as classic.  A loaded entry is built by
    {!Cogent.Driver.of_plan}: its search fields say no search ran.  Rows
    of earlier versions that also carry the search (["ranked"],
    ["prune"], ["naive_space"], ["bound_aborted"]) or
    ["degraded": false] load the same; those fields are ignored.  A row
    with ["degraded": true] holds the plan of a truncated search, not the
    one the full search picks: it is corrupt.

    A row is served under its key [K], so [K] must be the key its plan
    is filed under: {!Cogent.Cache.key} rebuilt from the decoded problem,
    device and precision, or that key with a forced-schema suffix naming
    the entry's own kernel schema.  A row under any other key is
    corrupt.

    Verbatim rows: a save copies each row loaded from the store file
    back as the bytes it was read from, and encodes only the rows this
    lifetime generated.  The bytes are not held in memory: {!read}
    returns each row's span and digest ({!Tc_obs.Jsonl.span}) beside its
    entry, the caller keeps the two together, and {!save} reads each span
    back from the file and copies it only while it still holds the same
    bytes.  A row is encoded again when the file was replaced since
    the load, and when its entry does not have exactly the six fields
    this version writes, which re-encodes an older row as the current
    one.  A hand-formatted row (other spacing or field order) is written
    back as it is, not renormalised.  Every load parses and classifies
    each distinct ["expr"] once.

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
(** The six fields of a row's entry: the plan. *)

val entry_of_json : Tc_obs.Json.t -> (Cogent.Driver.t, string) result
(** Inverse of {!entry_to_json} up to the search fields: the entry is
    [Driver.of_plan plan].  [Error] on any malformed field (of the six)
    and on ["degraded": true]. *)

type row = string * Cogent.Driver.t * Tc_obs.Jsonl.span option
(** A key, its entry, and where the row sat in the store file
    ({!Tc_obs.Jsonl.span}: offset, length, digest) when it has exactly
    the six fields this version writes.  [None] marks an entry to encode:
    a row of an earlier version, or an entry this lifetime generated. *)

val read : dir:string -> (row list, string) result
(** Rows in file order, duplicated keys included.  [Ok []] when the file
    does not exist; [Error] when the header is missing or carries the
    wrong schema; corrupt rows are skipped (see above).  Records a
    [planstore.load] span with [rows] and [bytes] (of the decoded rows'
    lines). *)

val load : dir:string -> ((string * Cogent.Driver.t) list, string) result
(** The keys and entries of {!read}. *)

val save : dir:string -> row list -> unit
(** Write header plus one line per row, creating [dir] if needed.  A row
    with a span is copied verbatim from the file while the span still
    holds the bytes it was read from (see above); every other row is
    encoded.  The file is replaced atomically (write-to-temp, rename).
    Records a [planstore.save] span with [rows], [bytes], [copied] and
    [encoded], and adds the last two to the
    [cogent.serve.planstore.rows_copied] and [.rows_encoded] counters.
    @raise Sys_error when the directory cannot be created or written. *)
