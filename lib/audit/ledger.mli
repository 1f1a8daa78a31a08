(** On-disk audit ledger: the persisted form of {!Audit.sample}s.

    A {!Tc_obs.Jsonl} file like {!Tc_serve.Planstore}'s:
    [{"schema":"cogent-audit/1"}] header, one sample object per line,
    written atomically and loaded tolerantly — a corrupt row is skipped
    and counted on [cogent.audit.ledger.corrupt_rows] /
    [cogent.audit.ledger.corrupt_line].  A missing directory loads as
    empty; a wrong or missing schema header is an error.

    Samples are deterministic model output appended in request order, so
    a saved ledger is byte-identical across worker-domain counts and
    cold/warm store replays — CI diffs the files directly. *)

val schema : string
(** ["cogent-audit/1"]. *)

val file : dir:string -> string
(** [dir/audit.jsonl]. *)

val save : dir:string -> Audit.sample list -> unit
(** Atomic write of the whole ledger (creates [dir] if needed). *)

val load : dir:string -> (Audit.sample list, string) result
(** All well-formed rows, in file order. *)
