open Tc_gpu
open Tc_expr
open Cogent

module Evidence = Tc_profile.Evidence

type candidate = { rank : int; evidence : Evidence.t }

type t = {
  problem : Problem.t;
  arch : Arch.t;
  precision : Precision.t;
  naive_space : float;
  stats : Prune.stats;
  candidates : candidate list;
}

let analyze (ctx : Ctx.t) ?(top = 3) problem =
  let arch = ctx.Ctx.arch and precision = ctx.Ctx.precision in
  Tc_obs.Trace.with_span "explain.analyze" @@ fun () ->
  let top = max 1 top in
  (* The planner's own search: [ranked] holds at least the [top] cheapest
     survivors, under the context's refinement. *)
  match Driver.run ctx ~topk:top problem with
  | Error e -> Error e
  | Ok d -> (
      (* The driver ranked these mappings for [problem], so [Plan.make]
         accepts each; a rejection is reported like the driver's own. *)
      let rec explain rank = function
        | [] -> Ok []
        | (mapping, _) :: rest -> (
            match Plan.make ~problem ~mapping ~arch ~precision with
            | Error m -> Error (Driver.Bad_problem m)
            | Ok plan ->
                let c = { rank; evidence = Evidence.make ~measure:false plan } in
                Result.map (List.cons c) (explain (rank + 1) rest))
      in
      match explain 1 (List.filteri (fun k _ -> k < top) d.Driver.ranked) with
      | Error e -> Error e
      | Ok candidates ->
          Ok
            {
              problem;
              arch;
              precision;
              naive_space = d.Driver.naive_space;
              stats = d.Driver.prune_stats;
              candidates;
            })

let pct x = 100.0 *. x

let render t =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let s = t.stats in
  Format.fprintf fmt "COGENT explain — %a@." Problem.pp t.problem;
  Format.fprintf fmt "device %s, %a (%d elements per %d B transaction)@.@."
    t.arch.Arch.name Precision.pp t.precision
    (Precision.elems_per_transaction t.precision)
    t.arch.Arch.transaction_bytes;
  Format.fprintf fmt "search space@.";
  Format.fprintf fmt "  naive configuration space   %14.3e@." t.naive_space;
  Format.fprintf fmt "  enumerated (Algorithm 2)    %14d@." s.Prune.enumerated;
  Format.fprintf fmt "  kept after pruning          %14d  (%.1f%% pruned)@.@."
    s.Prune.kept
    (if s.Prune.enumerated = 0 then 0.0
     else
       pct
         (float_of_int (s.Prune.enumerated - s.Prune.kept)
         /. float_of_int s.Prune.enumerated));
  Format.fprintf fmt "prune audit (rule → configurations rejected)@.";
  List.iter
    (fun r ->
      let n = Prune.pruned_count s r in
      if n > 0 then
        Format.fprintf fmt "  [%-14s] %-26s %8d@."
          (Prune.klass_to_string (Prune.klass_of_reason r))
          (Prune.reason_to_string r) n)
    Prune.all_reasons;
  Format.fprintf fmt "  hardware %d, performance %d%s@.@."
    s.Prune.hardware_rejects s.Prune.performance_rejects
    (if s.Prune.relaxed then
       Printf.sprintf "; performance constraints relaxed (%d attempts)"
         s.Prune.relax_attempts
     else "; strict rule set");
  Format.fprintf fmt "top %d of %d candidates by model cost (Algorithm 3)@."
    (List.length t.candidates) s.Prune.kept;
  List.iter
    (fun c ->
      let e = c.evidence in
      let p = e.Evidence.plan in
      let occupancy = Plan.occupancy p in
      Format.fprintf fmt "@.#%d  model cost %.3e transactions (%.3e bytes)@."
        c.rank p.Plan.cost e.Evidence.cost.Cost.total_bytes;
      Format.fprintf fmt "    mapping     %a@." Mapping.pp p.Plan.mapping;
      Format.fprintf fmt
        "    launch      %d threads/block, %d blocks, %d steps, %d B smem, \
         ~%d regs/thread@."
        (Plan.threads_per_block p) (Plan.num_blocks p) (Plan.num_steps p)
        (Plan.smem_bytes p) (Plan.regs_per_thread p);
      Format.fprintf fmt "    occupancy   %.2f (limiter: %a)@."
        occupancy.Occupancy.occupancy Occupancy.pp_limiter
        occupancy.Occupancy.limiter;
      Format.fprintf fmt "    DRAM charges per tensor@.";
      List.iter
        (fun ch ->
          Format.fprintf fmt
            "      %s  %10.3e tx  %10.3e B  run %4d  coalescing %3.0f%%@."
            ch.Cost.tensor ch.Cost.transactions ch.Cost.bytes ch.Cost.run
            (pct ch.Cost.coalescing))
        e.Evidence.cost.Cost.charges;
      (* The race's classic lane against its fastest pipelined one. *)
      let sim = e.Evidence.race.Tc_sim.Simkernel.classic in
      Format.fprintf fmt
        "    simulated   %.0f GFLOPS, %a (mem %.3f ms, compute %.3f ms)@."
        sim.Tc_sim.Simkernel.gflops Tc_sim.Simkernel.pp_bound
        sim.Tc_sim.Simkernel.bound
        (sim.Tc_sim.Simkernel.mem_time_s *. 1e3)
        (sim.Tc_sim.Simkernel.compute_time_s *. 1e3);
      let d = sim.Tc_sim.Simkernel.detail in
      Format.fprintf fmt
        "    roofline    mem_eff %.2f  comp_eff %.2f  warp %.2f  ilp %.2f  \
         sim tx A %.3e / B %.3e / C %.3e@."
        d.Tc_sim.Simkernel.mem_eff d.Tc_sim.Simkernel.comp_eff
        d.Tc_sim.Simkernel.warp_eff d.Tc_sim.Simkernel.ilp_eff
        d.Tc_sim.Simkernel.tx_lhs d.Tc_sim.Simkernel.tx_rhs
        d.Tc_sim.Simkernel.tx_out;
      (* Only on devices with async copies, so classic-only reports are
         unchanged. *)
      match e.Evidence.race.Tc_sim.Simkernel.pipelined with
      | None -> ()
      | Some (sc, r) ->
          let ratio =
            sim.Tc_sim.Simkernel.time_s /. r.Tc_sim.Simkernel.time_s
          in
          Format.fprintf fmt
            "    schema      %s %.0f GFLOPS — %.2fx vs classic staging \
             (%s)@."
            (Schema.to_string sc) r.Tc_sim.Simkernel.gflops ratio
            (if r.Tc_sim.Simkernel.time_s < sim.Tc_sim.Simkernel.time_s then
               "overlap wins"
             else "classic wins"))
    t.candidates;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let charge_to_json (ch : Cost.tensor_charge) =
  Tc_obs.Json.Obj
    [
      ("tensor", Tc_obs.Json.String ch.Cost.tensor);
      ("transactions", Tc_obs.Json.Float ch.Cost.transactions);
      ("bytes", Tc_obs.Json.Float ch.Cost.bytes);
      ("run", Tc_obs.Json.Int ch.Cost.run);
      ("coalescing", Tc_obs.Json.Float ch.Cost.coalescing);
    ]

let candidate_to_json c =
  let e = c.evidence in
  let p = e.Evidence.plan in
  let occupancy = Plan.occupancy p in
  let sim = e.Evidence.race.Tc_sim.Simkernel.classic in
  let d = sim.Tc_sim.Simkernel.detail in
  Tc_obs.Json.Obj
    ([
      ("rank", Tc_obs.Json.Int c.rank);
      ( "mapping",
        Tc_obs.Json.String (Format.asprintf "%a" Mapping.pp p.Plan.mapping) );
      ("model_cost", Tc_obs.Json.Float p.Plan.cost);
      ( "charges",
        Tc_obs.Json.List (List.map charge_to_json e.Evidence.cost.Cost.charges)
      );
      ("steps", Tc_obs.Json.Int e.Evidence.cost.Cost.steps);
      ("blocks", Tc_obs.Json.Int e.Evidence.cost.Cost.blocks);
      ("threads_per_block", Tc_obs.Json.Int (Plan.threads_per_block p));
      ("smem_bytes", Tc_obs.Json.Int (Plan.smem_bytes p));
      ("regs_per_thread", Tc_obs.Json.Int (Plan.regs_per_thread p));
      ("occupancy", Tc_obs.Json.Float occupancy.Occupancy.occupancy);
      ( "occupancy_limiter",
        Tc_obs.Json.String
          (Format.asprintf "%a" Occupancy.pp_limiter
             occupancy.Occupancy.limiter) );
      ("sim_gflops", Tc_obs.Json.Float sim.Tc_sim.Simkernel.gflops);
      ( "sim_bound",
        Tc_obs.Json.String
          (Format.asprintf "%a" Tc_sim.Simkernel.pp_bound
             sim.Tc_sim.Simkernel.bound) );
      ( "roofline",
        Tc_obs.Json.Obj
          [
            ("mem_eff", Tc_obs.Json.Float d.Tc_sim.Simkernel.mem_eff);
            ("comp_eff", Tc_obs.Json.Float d.Tc_sim.Simkernel.comp_eff);
            ("warp_eff", Tc_obs.Json.Float d.Tc_sim.Simkernel.warp_eff);
            ("ilp_eff", Tc_obs.Json.Float d.Tc_sim.Simkernel.ilp_eff);
            ("tx_lhs", Tc_obs.Json.Float d.Tc_sim.Simkernel.tx_lhs);
            ("tx_rhs", Tc_obs.Json.Float d.Tc_sim.Simkernel.tx_rhs);
            ("tx_out", Tc_obs.Json.Float d.Tc_sim.Simkernel.tx_out);
          ] );
    ]
    @
    match e.Evidence.race.Tc_sim.Simkernel.pipelined with
    | None -> []
    | Some (sc, r) ->
        [
          ( "pipelined",
            Tc_obs.Json.Obj
              [
                ("schema", Tc_obs.Json.String (Schema.to_string sc));
                ("sim_gflops", Tc_obs.Json.Float r.Tc_sim.Simkernel.gflops);
                ( "speedup_vs_classic",
                  Tc_obs.Json.Float
                    (sim.Tc_sim.Simkernel.time_s
                    /. r.Tc_sim.Simkernel.time_s) );
              ] );
        ])

let to_json t =
  let s = t.stats in
  Tc_obs.Json.Obj
    [
      ( "problem",
        Tc_obs.Json.String (Format.asprintf "%a" Problem.pp t.problem) );
      ("arch", Tc_obs.Json.String t.arch.Arch.name);
      ("precision", Tc_obs.Json.String (Precision.to_string t.precision));
      ("naive_space", Tc_obs.Json.Float t.naive_space);
      ( "prune",
        Tc_obs.Json.Obj
          [
            ("enumerated", Tc_obs.Json.Int s.Prune.enumerated);
            ("kept", Tc_obs.Json.Int s.Prune.kept);
            ("hardware_rejects", Tc_obs.Json.Int s.Prune.hardware_rejects);
            ("performance_rejects", Tc_obs.Json.Int s.Prune.performance_rejects);
            ("relaxed", Tc_obs.Json.Bool s.Prune.relaxed);
            ("relax_attempts", Tc_obs.Json.Int s.Prune.relax_attempts);
            ( "rejected_by_rule",
              Tc_obs.Json.Obj
                (List.filter_map
                   (fun r ->
                     let n = Prune.pruned_count s r in
                     if n = 0 then None
                     else Some (Prune.reason_slug r, Tc_obs.Json.Int n))
                   Prune.all_reasons) );
          ] );
      ("candidates", Tc_obs.Json.List (List.map candidate_to_json t.candidates));
    ]
