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

val load : dir:string -> ((string * Cogent.Driver.t) list, string) result
(** Rows in file order.  [Ok []] when the file does not exist; [Error]
    when the header is missing or carries the wrong schema; corrupt rows
    are skipped (see above). *)

val save : dir:string -> (string * Cogent.Driver.t) list -> unit
(** Write header plus one row per entry, creating [dir] if needed.  The
    file is replaced atomically (write-to-temp, rename).
    @raise Sys_error when the directory cannot be created or written. *)
