open Tc_gpu

type measure = Plan.t -> float

type t = {
  arch : Arch.t;
  precision : Precision.t;
  schema : Schema.t option;
  refine : int;
  measure : measure option;
  jobs : int option;
}

let default =
  {
    arch = Arch.v100;
    precision = Precision.FP64;
    schema = None;
    refine = 8;
    measure = None;
    jobs = None;
  }

let make ?(arch = Arch.v100) ?(precision = Precision.FP64) ?schema
    ?(refine = 8) ?measure ?jobs () =
  { arch; precision; schema; refine; measure; jobs }

let install_jobs t = Option.iter Tc_par.Pool.set_default_jobs t.jobs
