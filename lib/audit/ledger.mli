(** On-disk audit ledger: the persisted form of {!Audit.sample}s.

    A {!Tc_obs.Jsonl} file like {!Tc_serve.Planstore}'s:
    [{"schema":"cogent-audit/1"}] header, one sample object per line,
    written atomically and loaded tolerantly — a corrupt row is skipped
    and counted on [cogent.audit.ledger.corrupt_rows] /
    [cogent.audit.ledger.corrupt_line].  A missing directory loads as
    empty; a wrong or missing schema header is an error.  Rows still
    carry the retired [sim_time_s] key (always [pred_cogent_s]); loading
    ignores it, and the [degraded] key rows of earlier versions carry.

    Samples are deterministic model output appended in request order, so
    a saved ledger is byte-identical across worker-domain counts and
    cold/warm store replays — CI diffs the files directly. *)

val file : dir:string -> string
(** [dir/audit.jsonl]. *)

val save : dir:string -> Audit.sample list -> unit
(** Atomic write of the whole ledger (creates [dir] if needed). *)

val load : dir:string -> (Audit.sample list, string) result
(** All well-formed rows, in file order. *)
