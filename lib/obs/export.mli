(** Trace exporter: Chrome [trace_event] JSON.

    A pure function of {!Trace.events} output, so a trace can be exported
    (or re-exported after more events are recorded) at any time.
    Serialization is deterministic given deterministic event timestamps. *)

val to_chrome : Trace.event list -> string
(** Chrome [trace_event] JSON (the object form, [{"traceEvents": [...]}]) —
    complete events ([ph:"X"]) for spans, instant events ([ph:"i"]) and
    counter events ([ph:"C"]).  Every recording domain renders as its own
    thread ([tid] = the event's {!Trace.event} track + 1, with a
    [thread_name] metadata record), so pool fan-outs appear as separate,
    correctly nested rows.  Spans carrying a [("request", String id)]
    argument (see {!Trace.with_request}) are additionally bound into a
    flow ([ph:"s"/"t"/"f"]) per request id, connecting one request's
    spans across tracks into a single tree.  Load in [chrome://tracing]
    or [https://ui.perfetto.dev]. *)

val write_chrome : path:string -> Trace.event list -> unit
(** [to_chrome] straight to a file. *)
