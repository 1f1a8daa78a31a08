open Cogent
module Simkernel = Tc_sim.Simkernel

type t = {
  plan : Plan.t;
  cost : Cost.explanation;
  exact : Cost.breakdown;
  exact_l2 : Cost.breakdown;
  race : Simkernel.race;
  measured : Interp.counters option;
}

let make ~measure (plan : Plan.t) =
  let prec = plan.Plan.precision in
  let problem = plan.Plan.problem and mapping = plan.Plan.mapping in
  let race = Simkernel.race plan in
  (* The race prices every lane on the L2-discounted exact count. *)
  let d = race.Simkernel.classic.Simkernel.detail in
  {
    plan;
    cost = Cost.explain prec problem mapping;
    exact = Simkernel.transactions_exact prec problem mapping;
    exact_l2 = { Cost.lhs = d.Simkernel.tx_lhs; rhs = d.tx_rhs; out = d.tx_out };
    race;
    measured = (if measure then Some (Interp.measure plan) else None);
  }

let sim e = Simkernel.lane e.race e.plan.Plan.schema

let model_tx e =
  match e.cost.Cost.charges with
  | [ a; b; c ] ->
      { Cost.lhs = a.Cost.transactions; rhs = b.transactions; out = c.transactions }
  | _ -> invalid_arg "Evidence.model_tx: charge sheet is not A, B, C"

let counters e =
  match e.measured with
  | Some c -> c
  | None -> invalid_arg "Evidence.counters: built without ~measure:true"

let measured_tx e =
  let c = counters e in
  { Cost.lhs = c.Interp.tx_lhs; rhs = c.tx_rhs; out = c.tx_out }
