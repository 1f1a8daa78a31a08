(* The serving-engine bench target: replay the whole TCCG suite through a
   Tc_serve session (in-memory store) and report every request's dispatch
   decision and predicted performance.  The workload is built
   programmatically from Tc_tccg.Suite so the target does not depend on
   the checked-in examples/serve_requests.jsonl being on the cwd path;
   CI replays that file separately through the CLI. *)

module Benchrep = Tc_profile.Benchrep

let requests () =
  List.map
    (fun e ->
      Ok
        {
          Tc_serve.Request.id = e.Tc_tccg.Suite.id;
          expr = e.Tc_tccg.Suite.expr;
          sizes = Tc_expr.Sizes.of_list e.Tc_tccg.Suite.sizes;
          arch = Tc_gpu.Arch.v100;
          precision = Tc_gpu.Precision.FP64;
        })
    Tc_tccg.Suite.all

let run () =
  Report.section
    "Serving engine: TCCG suite replay (dedup, model dispatch)";
  let ctx = Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops () in
  let session =
    match Tc_serve.Serve.open_session ctx with
    | Ok s -> s
    | Error m -> failwith ("serve bench: " ^ m)
  in
  let report = Tc_serve.Serve.run session (requests ()) in
  List.iter
    (fun (r : Tc_serve.Serve.response) ->
      match r.Tc_serve.Serve.result with
      | Ok o ->
          Printf.printf "  req-%03d  %-18s -> %-6s  cogent %8.3f ms, ttgt %8.3f ms\n"
            r.Tc_serve.Serve.id r.Tc_serve.Serve.expr
            (Tc_serve.Serve.engine_name o.Tc_serve.Serve.engine)
            (o.Tc_serve.Serve.cogent_time_s *. 1e3)
            (o.Tc_serve.Serve.ttgt_time_s *. 1e3)
      | Error e ->
          Printf.printf "  req-%03d  %-18s -> error: %s\n" r.Tc_serve.Serve.id
            r.Tc_serve.Serve.expr
            (Tc_serve.Serve.error_to_string e))
    report.Tc_serve.Serve.responses;
  print_newline ();
  print_string (Tc_serve.Serve.render_summary report.Tc_serve.Serve.summary);
  (* Deterministic latency summary: the predicted-time histogram is model
     output observed in request order, so these quantiles are
     bit-identical at any job count (unlike the *_wall_* instruments,
     which are deliberately left out of this line). *)
  List.iter
    (function
      | Tc_obs.Metrics.Histogram_v { name; _ } as item
        when name = "cogent.serve.predicted_seconds" ->
          Printf.printf "predicted latency  %s\n"
            (String.concat ", "
               (List.map
                  (fun (q, v) ->
                    Printf.sprintf "p%g %.4f ms" (q *. 100.0) (v *. 1e3))
                  (Tc_obs.Metrics.quantile_summary item)))
      | _ -> ())
    (Tc_obs.Metrics.snapshot Tc_obs.Metrics.global);
  (Tc_serve.Serve.report_doc ~wall_s:0.0 report).Benchrep.entries
