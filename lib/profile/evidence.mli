(** One plan's evidence: the facts the paper's argument rests on (§IV–§V),
    each computed once, in one place.  {!Profile}, [Tc_audit.Audit.sample]
    and [Tc_explain.Explain] render this record instead of assembling their
    own, so they cannot disagree about a plan. *)

open Cogent

type t = {
  plan : Plan.t;
  cost : Cost.explanation;
      (** Algorithm-3 charge sheet; its per-tensor charges are
          {!Cogent.Cost.transactions} *)
  exact : Cost.breakdown;
      (** {!Tc_sim.Simkernel.transactions_exact}, no-L2: the simulator's
          side of the exact-agreement contract *)
  exact_l2 : Cost.breakdown;
      (** the same count with the plan's L2 discount: the traffic every
          lane of [race] is priced on *)
  race : Tc_sim.Simkernel.race;
  measured : Interp.counters option;
      (** {!Cogent.Interp.measure}'s ground truth, the only costly field
          ([blocks * steps * tile volume]); [None] unless built with
          [~measure:true] *)
}

val make : measure:bool -> Plan.t -> t

val sim : t -> Tc_sim.Simkernel.result
(** The race's lane for the plan's own schema, i.e.
    {!Tc_sim.Simkernel.run} of the plan. *)

val model_tx : t -> Cost.breakdown
(** The charge sheet's per-tensor transactions. *)

val counters : t -> Interp.counters
(** [measured].  @raise Invalid_argument when it is [None]. *)

val measured_tx : t -> Cost.breakdown
(** The measured DRAM transactions per tensor. *)
