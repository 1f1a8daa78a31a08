open Tc_gpu

type measure = Plan.t -> float

type t = {
  arch : Arch.t;
  precision : Precision.t;
  schema : Schema.t option;
  refine : int;
  measure : measure option;
  jobs : int option;
  budget : int option;
}

let default =
  {
    arch = Arch.v100;
    precision = Precision.FP64;
    schema = None;
    refine = 8;
    measure = None;
    jobs = None;
    budget = None;
  }

let make ?(arch = Arch.v100) ?(precision = Precision.FP64) ?schema
    ?(refine = 8) ?measure ?jobs ?budget () =
  { arch; precision; schema; refine; measure; jobs; budget }

let install_jobs t = Option.iter Tc_par.Pool.set_default_jobs t.jobs

let pp ppf t =
  Format.fprintf ppf "%s %s schema=%s refine=%d %s jobs=%s budget=%s"
    t.arch.Arch.name
    (Precision.to_string t.precision)
    (match t.schema with None -> "auto" | Some s -> Schema.to_string s)
    t.refine
    (if Option.is_none t.measure then "model-only" else "measured")
    (match t.jobs with None -> "default" | Some j -> string_of_int j)
    (match t.budget with None -> "unlimited" | Some b -> string_of_int b)
