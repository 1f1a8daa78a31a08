open Tc_expr
open Tc_gpu
open Cogent
module Trace = Tc_obs.Trace
module Json = Tc_obs.Json

type row = {
  quantity : string;
  measured : float;
  sim : float option;
  model : float option;
  sim_rel : float;
  model_rel : float;
}

type t = {
  evidence : Evidence.t;
  rows : row list;
  worst : row option;
}

(* Measured and simulator-predicted counters must agree exactly (checked
   in no-L2 mode; the L2 discount is a separate, explicit row). *)
let sim_bound = 0.0

(* Relative-error bound for the Algorithm-3 estimate against measured
   transactions; EXPERIMENTS.md has the observed errors behind it. *)
let cost_bound = 0.5

let signed_error ~measured p =
  (p -. measured) /. Float.max (Float.abs measured) 1.0

let rel_error measured = function
  | None -> 0.0
  | Some p -> Float.abs (signed_error ~measured p)

let make_row quantity measured sim model =
  let sim_rel = rel_error measured sim and model_rel = rel_error measured model in
  { quantity; measured; sim; model; sim_rel; model_rel }

let ceil_div a b = (a + b - 1) / b

(* The simulated execution as a deterministic Chrome-trace timeline: block
   waves filling the SMs, with the GMEM->SMEM / compute phase structure of
   a representative block expanded inside the first wave.  A virtual clock
   keeps the output reproducible; wave and phase durations are read off the
   simulator's roofline terms. *)
let build_timeline (e : Evidence.t) =
  let plan = e.Evidence.plan and sim = Evidence.sim e in
  let counters = Evidence.counters e in
  let now = ref 0.0 in
  let tr = Trace.make ~clock:(fun () -> !now) () in
  let span ?args name dur f =
    Trace.with_span ~t:tr ?args name (fun () ->
        f ();
        now := !now +. Float.max 0.0 dur)
  in
  let arch = plan.Plan.arch in
  let blocks = Plan.num_blocks plan in
  let steps = Plan.num_steps plan in
  let occ = Plan.occupancy plan in
  let act = max 1 occ.Occupancy.active_blocks_per_sm in
  let per_wave = act * arch.Arch.sms in
  let waves = max 1 (ceil_div blocks per_wave) in
  let launch = sim.Tc_sim.Simkernel.detail.Tc_sim.Simkernel.launch_s in
  let body =
    let b = sim.Tc_sim.Simkernel.time_s -. launch in
    if Float.is_finite b && b > 0.0 then b else 0.0
  in
  let wave_dur = body /. float_of_int waves in
  let mem = sim.Tc_sim.Simkernel.mem_time_s
  and comp = sim.Tc_sim.Simkernel.compute_time_s in
  let mem_frac =
    if Float.is_finite (mem +. comp) && mem +. comp > 0.0 then
      mem /. (mem +. comp)
    else 0.5
  in
  let total_tx =
    counters.Interp.tx_lhs +. counters.Interp.tx_rhs +. counters.Interp.tx_out
  in
  let shown_waves = min waves 32 in
  Trace.with_span ~t:tr ~cat:"profile" "kernel"
    ~args:
      [
        ("blocks", Trace.Int blocks);
        ("steps", Trace.Int steps);
        ("sms", Trace.Int arch.Arch.sms);
        ("blocks_per_sm", Trace.Int act);
      ]
    (fun () ->
      span "launch" launch (fun () -> ());
      for w = 0 to shown_waves - 1 do
        let first = w * per_wave in
        let last = min (blocks - 1) (first + per_wave - 1) in
        let args =
          [
            ("blocks", Trace.String (Printf.sprintf "%d-%d" first last));
            ("resident_per_sm", Trace.Int act);
          ]
        in
        span
          (Printf.sprintf "wave %d/%d" (w + 1) waves)
          wave_dur ~args
          (fun () ->
            if w = 0 then begin
              (* One resident block, phase by phase. *)
              let shown_steps = min steps 8 in
              let step_dur = wave_dur /. float_of_int steps in
              for _s = 1 to shown_steps do
                span "gmem->smem" (step_dur *. mem_frac) (fun () -> ());
                span "smem->reg outer products"
                  (step_dur *. (1.0 -. mem_frac))
                  (fun () -> ())
              done;
              if steps > shown_steps then
                span
                  (Printf.sprintf "steps %d-%d" (shown_steps + 1) steps)
                  (step_dur *. float_of_int (steps - shown_steps))
                  (fun () -> ());
              Trace.instant ~t:tr ~cat:"profile" "reg->gmem store"
                ~args:
                  [ ("tx_out", Trace.Float counters.Interp.tx_out) ]
            end);
        Trace.counter ~t:tr "dram_tx_cumulative"
          (total_tx *. float_of_int (w + 1) /. float_of_int waves)
      done;
      if waves > shown_waves then
        span
          (Printf.sprintf "waves %d-%d" (shown_waves + 1) waves)
          (wave_dur *. float_of_int (waves - shown_waves))
          (fun () -> ()));
  Trace.events tr

let profile (plan : Plan.t) =
  let evidence = Evidence.make ~measure:true plan in
  let mapping = plan.Plan.mapping and prec = plan.Plan.precision in
  let counters = Evidence.counters evidence in
  let measured = Evidence.measured_tx evidence
  and exact = evidence.Evidence.exact
  and model = Evidence.model_tx evidence in
  let tx quantity pick =
    make_row quantity (pick measured) (Some (pick exact)) (Some (pick model))
  in
  let total (b : Cost.breakdown) = b.lhs +. b.rhs +. b.out in
  let blocks = float_of_int (Plan.num_blocks plan) in
  let steps = float_of_int (Plan.num_steps plan) in
  let smem_predicted =
    float_of_int (Mapping.smem_elems mapping * Precision.bytes prec)
    *. steps *. blocks
  in
  let fma_padded_predicted =
    float_of_int (Plan.threads_per_block plan)
    *. float_of_int (Mapping.size_regx mapping)
    *. float_of_int (Mapping.size_regy mapping)
    *. float_of_int (Mapping.size_tbk mapping)
    *. steps *. blocks
  in
  let rows =
    [
      tx "DRAM tx, load A" (fun b -> b.Cost.lhs);
      tx "DRAM tx, load B" (fun b -> b.Cost.rhs);
      tx "DRAM tx, store C" (fun b -> b.Cost.out);
      (* The charge sheet's total is [total model], summed the same way. *)
      tx "DRAM tx, total" total;
      make_row "SMEM bytes staged" counters.Interp.smem_bytes None
        (Some smem_predicted);
      make_row "FMA slots (padded loop)" counters.Interp.fma_padded
        (Some fma_padded_predicted) None;
      make_row "FMAs useful" counters.Interp.fma_useful None
        (Some (Problem.flops plan.Plan.problem /. 2.0));
      make_row "store tx, busiest block" counters.Interp.store_tx_block_max
        None None;
    ]
  in
  let worst =
    List.fold_left
      (fun acc r ->
        match (r.model, acc) with
        | None, _ -> acc
        | Some _, None -> Some r
        | Some _, Some w -> if r.model_rel > w.model_rel then Some r else acc)
      None rows
  in
  { evidence; rows; worst }

let sim_agrees t =
  List.for_all
    (fun r -> match r.sim with None -> true | Some p -> p = r.measured)
    t.rows

let violations t =
  List.filter
    (fun r ->
      match r.model with None -> false | Some _ -> r.model_rel > cost_bound)
    t.rows

(* ---- rendering ---- *)

let num f = Printf.sprintf "%.6g" f

let opt_num = function None -> "-" | Some f -> num f

let opt_pct rel = function None -> "-" | Some _ -> Printf.sprintf "%.2f" (100.0 *. rel)

let render t =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let plan = t.evidence.Evidence.plan in
  let problem = plan.Plan.problem in
  p "simulated-hardware profile\n";
  p "==========================\n";
  p "expr:      %s\n"
    (Format.asprintf "%a" Ast.pp (Problem.info problem).Classify.original);
  p "arch:      %s, %s\n" plan.Plan.arch.Arch.name
    (Precision.to_string plan.Plan.precision);
  p "mapping:   %s\n" (Format.asprintf "%a" Mapping.pp plan.Plan.mapping);
  p "launch:    %d blocks x %d threads, %d steps, occupancy %.3f\n"
    (Plan.num_blocks plan)
    (Plan.threads_per_block plan)
    (Plan.num_steps plan)
    (Plan.occupancy plan).Occupancy.occupancy;
  p "\n";
  p
    "counter cross-validation (measured = replay of the emitted schedule)\n";
  p "%-26s %14s %14s %8s %14s %8s\n" "quantity" "measured" "simulator"
    "err%" "cost model" "err%";
  let worst_q = match t.worst with Some w -> w.quantity | None -> "" in
  List.iter
    (fun r ->
      let flag =
        if (match r.model with Some _ -> r.model_rel > cost_bound | None -> false)
        then " **"
        else if
          String.equal r.quantity worst_q && r.model <> None
          && r.model_rel > 0.0
        then " !"
        else ""
      in
      p "%-26s %14s %14s %8s %14s %8s%s\n" r.quantity (num r.measured)
        (opt_num r.sim)
        (opt_pct r.sim_rel r.sim)
        (opt_num r.model)
        (opt_pct r.model_rel r.model)
        flag)
    t.rows;
  p "\n";
  (if sim_agrees t then
     p "simulator:  exact agreement with measured counters (no-L2 mode)\n"
   else p "simulator:  ** DIVERGES from measured counters — model bug\n");
  (match t.worst with
  | Some w ->
      let verdict =
        if w.model_rel > cost_bound then "EXCEEDS bound" else "ok"
      in
      p
        "cost model: worst divergence %s (%.2f%%) against documented bound \
         %.0f%% — %s\n"
        w.quantity (100.0 *. w.model_rel)
        (100.0 *. cost_bound)
        verdict
  | None -> ());
  let viol = violations t in
  if viol <> [] then begin
    p "            flagged beyond bound:";
    List.iter (fun r -> p " [%s]" r.quantity) viol;
    p "\n"
  end;
  let l2 = t.evidence.Evidence.exact_l2 in
  p "L2 model:   A %s  B %s  C %s (DRAM-equivalent tx on %s)\n"
    (num l2.Cost.lhs) (num l2.Cost.rhs) (num l2.Cost.out)
    plan.Plan.arch.Arch.name;
  let sim = Evidence.sim t.evidence in
  p "simulator:  %.1f GFLOPS, %s, %.3f ms (mem %.3f ms, compute %.3f ms)\n"
    sim.Tc_sim.Simkernel.gflops
    (Format.asprintf "%a" Tc_sim.Simkernel.pp_bound sim.Tc_sim.Simkernel.bound)
    (1e3 *. sim.Tc_sim.Simkernel.time_s)
    (1e3 *. sim.Tc_sim.Simkernel.mem_time_s)
    (1e3 *. sim.Tc_sim.Simkernel.compute_time_s);
  Buffer.contents buf

(* ---- JSON ---- *)

let json_opt = function None -> Json.Null | Some f -> Json.Float f

let row_to_json r =
  Json.Obj
    [
      ("quantity", Json.String r.quantity);
      ("measured", Json.Float r.measured);
      ("simulator", json_opt r.sim);
      ("simulator_rel_err", json_opt (Option.map (fun _ -> r.sim_rel) r.sim));
      ("cost_model", json_opt r.model);
      ("cost_model_rel_err",
       json_opt (Option.map (fun _ -> r.model_rel) r.model));
      ("within_bound",
       match r.model with
       | None -> Json.Null
       | Some _ -> Json.Bool (r.model_rel <= cost_bound));
    ]

let breakdown_to_json (b : Cost.breakdown) =
  Json.Obj
    [
      ("lhs", Json.Float b.Cost.lhs);
      ("rhs", Json.Float b.Cost.rhs);
      ("out", Json.Float b.Cost.out);
    ]

let to_json t =
  let e = t.evidence in
  let plan = e.Evidence.plan in
  let problem = plan.Plan.problem in
  let sim = Evidence.sim e in
  Json.Obj
    [
      ("schema", Json.String "cogent-profile/1");
      ( "expr",
        Json.String
          (Format.asprintf "%a" Ast.pp (Problem.info problem).Classify.original)
      );
      ("arch", Json.String plan.Plan.arch.Arch.name);
      ("precision", Json.String (Precision.to_string plan.Plan.precision));
      ( "mapping",
        Json.String (Format.asprintf "%a" Mapping.pp plan.Plan.mapping) );
      ("blocks", Json.Int (Plan.num_blocks plan));
      ("steps", Json.Int (Plan.num_steps plan));
      ("threads", Json.Int (Plan.threads_per_block plan));
      ("sim_bound", Json.Float sim_bound);
      ("cost_bound", Json.Float cost_bound);
      ("sim_agrees", Json.Bool (sim_agrees t));
      ("rows", Json.List (List.map row_to_json t.rows));
      ( "violations",
        Json.List
          (List.map (fun r -> Json.String r.quantity) (violations t)) );
      ( "worst",
        match t.worst with
        | None -> Json.Null
        | Some w ->
            Json.Obj
              [
                ("quantity", Json.String w.quantity);
                ("rel_err", Json.Float w.model_rel);
              ] );
      ("exact_no_l2", breakdown_to_json e.Evidence.exact);
      ("exact_l2", breakdown_to_json e.Evidence.exact_l2);
      ( "simulator",
        Json.Obj
          [
            ("gflops", Json.Float sim.Tc_sim.Simkernel.gflops);
            ("time_s", Json.Float sim.Tc_sim.Simkernel.time_s);
            ( "bound",
              Json.String
                (Format.asprintf "%a" Tc_sim.Simkernel.pp_bound
                   sim.Tc_sim.Simkernel.bound) );
            ("occupancy", Json.Float sim.Tc_sim.Simkernel.occupancy);
          ] );
    ]

let timeline_chrome t = Tc_obs.Export.to_chrome (build_timeline t.evidence)
