(** Flight recorder: a fixed-size ring buffer of per-request summaries.

    The post-mortem story for a long-lived serving process: every request
    appends one small, allocation-bounded {!entry} (id, cache key,
    dispatch decision, error, timings); the ring retains the most recent
    [capacity] of them, so when something crashes mid-batch, {!dump}
    reconstructs what the last N requests did without any tracing having
    been enabled.  Recording is mutex-protected and cheap — no clock
    reads, no I/O — so the serving layer records unconditionally.

    Entries carry a monotone [seq]; after an overwrite, {!entries} still
    returns the retained suffix oldest-first, and a gap between [seq = 0]
    and the first returned entry tells the reader how much history was
    evicted. *)

type entry = {
  seq : int;  (** monotone record number (0-based, never reused) *)
  request : string;  (** request id, e.g. ["req-007"] *)
  key : string;  (** plan-cache key ([""] if the request never got one) *)
  expr : string;
  strategy : string option;  (** dispatch decision, if one was made *)
  error : string option;
  timings : (string * float) list;  (** named durations/predictions, seconds *)
}

type t

val create : ?capacity:int -> unit -> t
(** A fresh recorder retaining the last [capacity] (default 128, min 1)
    entries. *)

val global : t
(** The process-wide recorder the serving layer records into. *)

val capacity : t -> int

val record :
  ?recorder:t ->
  ?key:string ->
  ?expr:string ->
  ?strategy:string ->
  ?error:string ->
  ?timings:(string * float) list ->
  string ->
  unit
(** [record request] appends an entry for request id [request],
    evicting the oldest entry once the ring is full.  Default recorder:
    {!global}. *)

val entries : t -> entry list
(** The retained entries, oldest first. *)

val recorded : t -> int
(** Total entries ever recorded (≥ [List.length (entries t)]). *)

val clear : t -> unit

val dump : path:string -> t -> unit
(** Write {!entries} to [path] as JSONL — one self-describing JSON object
    per line, optional fields omitted, every line parseable with
    {!Json.parse}.  This is what [cogent serve --flight-dump FILE] and the
    CI gate artifacts use. *)
