(** Structured tracing: hierarchical spans, instants, counter samples and
    request scopes.

    The core is pay-for-what-you-use: with no context installed (and none
    passed explicitly), {!with_span} reduces to calling its thunk — no
    allocation, no clock read, no locking — so instrumented library code
    is bit-identical in behaviour to uninstrumented code.  When a context
    is active, events are collected in memory under a mutex (sinks are
    thread-safe) and can be exported through {!Export} as Chrome
    [trace_event] JSON loadable in [chrome://tracing] / Perfetto.

    {b Domain safety.}  The ambient context, the ambient request scope
    and the stack of open spans are domain-local ([Domain.DLS]): each
    domain nests its own spans (their [depth] counts from that domain's
    root), while completed events from every domain merge into the
    context's shared sink by sequence number.  [Tc_par.Pool] captures the
    submitting domain's full ambient state with {!capture} and
    re-installs it ({!with_ambient}) around items it runs on worker
    domains, so spans — and their request attribution — recorded inside
    a parallel section land in the same sink.

    {b Tracks.}  Every event carries a [track]: a small integer naming
    the recording domain {e within this context}.  Tracks are assigned in
    the order domains first record (derived from the deterministic event
    sequence, never [Domain.self]), so the exporter can render each
    domain's spans on its own timeline row with correct nesting.

    {b Request scopes.}  {!with_request} opens a span and additionally
    marks the calling domain as serving the given request id for the
    dynamic extent of the thunk: every span and instant recorded inside —
    including on worker domains the pool re-installed the scope on — gets
    a [("request", String id)] argument, which {!Export.to_chrome} uses
    to bind one request's spans into a connected flow across tracks.

    Timestamps come from the context's clock (seconds, converted to
    microseconds relative to the first event).  The default clock is
    {!Clock.now}; the profiler's virtual timeline and tests substitute a
    deterministic one via [make ~clock]. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type args = (string * value) list
(** Key/value annotations attached to an event. *)

type event =
  | Span of {
      name : string;
      cat : string;  (** category, e.g. ["cogent"] — Chrome's [cat] field *)
      start_us : float;
      dur_us : float;
      depth : int;  (** nesting depth, 0 = root (per recording domain) *)
      track : int;  (** recording domain's track within this context *)
      args : args;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      track : int;
      args : args;
    }
  | Counter of { name : string; ts_us : float; track : int; value : float }

val event_args : event -> args
(** The event's annotations ([[]] for counters). *)

type t
(** A trace context: a clock plus a thread-safe in-memory event sink. *)

val make : ?clock:(unit -> float) -> unit -> t
(** A fresh, empty context.  [clock] returns seconds; it only needs to be
    monotone.  Default: {!Clock.now}. *)

val install : t -> unit
(** Make [t] the ambient context of the {e calling domain}: subsequent
    [with_span]/[instant]/[counter] calls without an explicit [?t] record
    into it. *)

val uninstall : unit -> unit

val installed : unit -> t option

val with_installed : t -> (unit -> 'a) -> 'a
(** [with_installed t f] installs [t], runs [f], and restores the
    previously installed context (even on exceptions). *)

type ambient
(** The calling domain's full ambient tracing state: the installed
    context {e and} the open request scope. *)

val capture : unit -> ambient

val with_ambient : ambient -> (unit -> 'a) -> 'a
(** Install a captured ambient state for the duration of the thunk and
    restore the previous state after — how [Tc_par.Pool] makes worker
    domains record into the submitting domain's context under the
    submitting domain's request scope. *)

val enabled : unit -> bool
(** [true] iff a context is installed — the cheap guard instrumented code
    may use before building expensive arguments. *)

val with_span : ?t:t -> ?cat:string -> ?args:args -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f] as a span nested under the currently open
    span of the target context.  With no target context, exactly [f ()]. *)

val with_request :
  ?t:t -> id:string -> ?attrs:args -> string -> (unit -> 'a) -> 'a
(** [with_request ~id name f] opens a span [name] (category ["request"])
    and marks the calling domain as serving request [id] while [f] runs:
    the span itself and every event recorded inside its dynamic extent —
    including events from pool worker domains that re-installed the
    captured ambient state — carry a [("request", String id)] argument.
    Request scopes nest; the innermost wins.  With no target context,
    exactly [f ()]. *)

val current_request : unit -> string option
(** The request id of the innermost open request scope on this domain. *)

val add_args : ?t:t -> args -> unit
(** Append annotations to the innermost open span (useful when a result —
    e.g. how many configurations survived — is only known mid-span).
    No-op without a target context or outside any span. *)

val instant : ?t:t -> ?cat:string -> ?args:args -> string -> unit
(** A zero-duration point event. *)

val counter : ?t:t -> string -> float -> unit
(** A counter sample (Chrome renders these as stacked area charts). *)

val events : t -> event list
(** All completed events in deterministic creation order (spans ordered by
    their begin time, before any children). *)
