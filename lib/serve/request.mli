(** Serving-workload requests.

    A workload file is JSONL: one request object per line, e.g.
    [{"expr":"abcd-aebf-dfce","sizes":"a=48,b=48,c=48,d=48,e=32,f=32"}],
    with optional ["arch"] (p100|v100|a100|h100) and ["precision"]
    (fp16|tf32|fp32|fp64) fields overriding the session context.  Blank lines are skipped;
    request ids are 1-based line numbers, so a malformed line keeps a
    stable id in the report. *)

open Tc_gpu
open Tc_expr

type t = {
  id : int;  (** 1-based line number in the workload file *)
  expr : string;  (** contraction text as given (TCCG or Einstein form) *)
  sizes : Sizes.t;
  arch : Arch.t;
  precision : Precision.t;
}

val of_line : default:Cogent.Ctx.t -> id:int -> string -> (t, string) result
(** Parse one workload line; [default] supplies the device and precision
    for requests that do not override them. *)

val load_file :
  default:Cogent.Ctx.t -> string
  -> ((t, int * string) result list, string) result
(** Every non-blank line of the file, in order: [Ok] a request or
    [Error (line, message)] for a malformed one (the batch still runs;
    the engine turns these into typed per-request errors).  The outer
    [Error] is an unreadable file. *)

val problem : t -> (Problem.t, string) result
(** Parse the contraction ({!Tc_expr.Problem.analyse}) and bind the extents
    ({!Tc_expr.Problem.of_info}). *)

val ctx : default:Cogent.Ctx.t -> t -> Cogent.Ctx.t
(** The session context with this request's device and precision. *)
