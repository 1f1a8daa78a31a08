(** The one clock every duration the system reports is read from. *)

val now : unit -> float
(** Monotonic wall time in seconds from an arbitrary origin
    ([bechamel.monotonic_clock]): differences of two reads never go
    negative, count time spent blocked, and on several domains add up to
    elapsed time rather than CPU time. *)
