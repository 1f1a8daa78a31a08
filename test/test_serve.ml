(* Tests for the serving layer: the Planstore codec and its failure
   ladder, the engine's dedup / dispatch / typed-error semantics, budget
   degradation, and warm-restart sessions. *)

open Tc_expr

let check = Alcotest.check
let fail = Alcotest.fail
let ctx = Cogent.Ctx.make ~measure:Tc_sim.Simkernel.gflops ()

(* A unique, initially-absent store directory (Planstore.save creates it). *)
let fresh_dir () =
  let f = Filename.temp_file "cogent_serve" ".store" in
  Sys.remove f;
  f

let drive problem c =
  match Cogent.Driver.run c problem with
  | Ok r -> r
  | Error e -> fail (Cogent.Driver.error_to_string e)

let req id expr sizes =
  {
    Tc_serve.Request.id;
    expr;
    sizes = Sizes.of_list sizes;
    arch = Tc_gpu.Arch.v100;
    precision = Tc_gpu.Precision.FP64;
  }

(* ---- Planstore ---- *)

(* Save→load must reproduce every entry bit-exactly: the codec stores the
   contraction textually and *recomputes* plan costs on load, so this
   property locks both the codec and the determinism of the cost model.
   Budget-truncated (degraded) entries are covered too. *)
let planstore_roundtrip =
  QCheck.Test.make ~count:20
    ~name:"Planstore save/load round-trips entries bit-exactly"
    Gen.case_arbitrary
    (fun c ->
      let problem = c.Gen.problem in
      let full =
        match Cogent.Driver.run ctx problem with
        | Ok r -> r
        | Error e ->
            QCheck.Test.fail_report (Cogent.Driver.error_to_string e)
      in
      let degraded =
        match Cogent.Driver.run { ctx with Cogent.Ctx.budget = Some 1 } problem with
        | Ok r -> r
        | Error e ->
            QCheck.Test.fail_report (Cogent.Driver.error_to_string e)
      in
      let rows =
        [ (Cogent.Cache.key ctx problem, full); ("degraded-row", degraded) ]
      in
      let dir = fresh_dir () in
      Tc_serve.Planstore.save ~dir rows;
      match Tc_serve.Planstore.load ~dir with
      | Error m -> QCheck.Test.fail_report m
      | Ok rows' -> rows = rows')

let test_planstore_missing_is_empty () =
  match Tc_serve.Planstore.load ~dir:(fresh_dir ()) with
  | Ok [] -> ()
  | Ok _ -> fail "missing store must load as empty"
  | Error m -> fail m

let test_planstore_rejects_wrong_schema () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let write content =
    let oc = open_out (Tc_serve.Planstore.file ~dir) in
    output_string oc content;
    close_out oc
  in
  write "{\"schema\":\"cogent-planstore/999\"}\n";
  (match Tc_serve.Planstore.load ~dir with
  | Error _ -> ()
  | Ok _ -> fail "wrong-schema store must be rejected");
  write "";
  match Tc_serve.Planstore.load ~dir with
  | Error _ -> ()
  | Ok _ -> fail "headerless store must be rejected"

let test_planstore_skips_corrupt_row () =
  let problem =
    Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 64); ('b', 64); ('c', 64) ]
  in
  let r = drive problem ctx in
  let dir = fresh_dir () in
  Tc_serve.Planstore.save ~dir [ ("good", r) ];
  (* corrupt trailing row: truncated JSON, as a crashed writer would leave *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Tc_serve.Planstore.file ~dir)
  in
  output_string oc "{\"key\":\"bad\",\"entry\":{\"expr\":\n";
  close_out oc;
  let metric name =
    Option.value ~default:0.0
      (Tc_obs.Metrics.value Tc_obs.Metrics.global
         ("cogent.serve.planstore." ^ name))
  in
  let before = metric "corrupt_rows" in
  (match Tc_serve.Planstore.load ~dir with
  | Error m -> fail m
  | Ok rows ->
      check Alcotest.int "good row survives" 1 (List.length rows);
      check Alcotest.bool "row round-tripped" true ([ ("good", r) ] = rows));
  check (Alcotest.float 0.0) "corrupt row counted" (before +. 1.0)
    (metric "corrupt_rows");
  (* header line 1, good row line 2, corrupt row line 3 *)
  check (Alcotest.float 0.0) "gauge names the offending line" 3.0
    (metric "corrupt_line");
  (* a well-formed row naming a precision no parser accepts is corrupt too *)
  let rec requad = function
    | Tc_obs.Json.Obj kvs ->
        Tc_obs.Json.Obj
          (List.map
             (fun (k, v) ->
               (k, if k = "precision" then Tc_obs.Json.String "quad"
                   else requad v))
             kvs)
    | j -> j
  in
  let quad_row =
    match
      Tc_obs.Json.parse
        (List.nth
           (String.split_on_char '\n'
              (In_channel.with_open_text (Tc_serve.Planstore.file ~dir)
                 In_channel.input_all))
           1)
    with
    | Ok j -> Tc_obs.Json.to_string (requad j)
    | Error m -> fail m
  in
  let oc =
    open_out_gen [ Open_append ] 0o644 (Tc_serve.Planstore.file ~dir)
  in
  output_string oc (quad_row ^ "\n");
  close_out oc;
  (match Tc_serve.Planstore.load ~dir with
  | Error m -> fail m
  | Ok rows -> check Alcotest.int "quad row skipped" 1 (List.length rows));
  check (Alcotest.float 0.0) "quad row counted" (before +. 3.0)
    (metric "corrupt_rows");
  check (Alcotest.float 0.0) "gauge names the quad row" 4.0
    (metric "corrupt_line")

(* ---- budget degradation ---- *)

let test_budget_degrades_gracefully () =
  let problem =
    Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:
        [ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]
  in
  let full = drive problem ctx in
  check Alcotest.bool "unlimited search is not degraded" false
    full.Cogent.Driver.degraded;
  (* near-zero budget: clamped to one candidate — the heuristic
     top-of-enumeration plan — and flagged *)
  let r = drive problem { ctx with Cogent.Ctx.budget = Some 0 } in
  check Alcotest.bool "budget-truncated search is degraded" true
    r.Cogent.Driver.degraded;
  check Alcotest.int "exactly one candidate ranked" 1
    (List.length r.Cogent.Driver.ranked);
  check Alcotest.bool "still yields a valid plan" true
    (Result.is_ok
       (Cogent.Mapping.validate problem r.Cogent.Driver.plan.Cogent.Plan.mapping))

(* ---- the engine ---- *)

let open_session ?store c =
  match Tc_serve.Serve.open_session ?store c with
  | Ok s -> s
  | Error m -> fail m

let test_batch_completes_with_typed_errors () =
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Error (2, "bad JSON: unexpected end of input");
      Ok (req 3 "definitely not a contraction" [ ('a', 4) ]);
    ]
  in
  let s = open_session ctx in
  let report = Tc_serve.Serve.run s items in
  let responses = report.Tc_serve.Serve.responses in
  check Alcotest.int "every request answered" 3 (List.length responses);
  check (Alcotest.list Alcotest.int) "responses keep request order" [ 1; 2; 3 ]
    (List.map (fun r -> r.Tc_serve.Serve.id) responses);
  (match List.map (fun r -> r.Tc_serve.Serve.result) responses with
  | [ Ok _; Error (Tc_serve.Serve.Bad_request _); Error (Tc_serve.Serve.Bad_request _) ] -> ()
  | _ -> fail "expected Ok, Bad_request, Bad_request");
  check Alcotest.int "summary errors" 2 report.Tc_serve.Serve.summary.Tc_serve.Serve.errors

let test_crash_is_per_request () =
  (* a measure that raises: generation crashes, but the batch completes
     and the crash is a typed per-request error *)
  let boom = Cogent.Ctx.make ~measure:(fun _ -> failwith "boom") () in
  let s = open_session boom in
  let report =
    Tc_serve.Serve.run s [ Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]) ]
  in
  match (List.hd report.Tc_serve.Serve.responses).Tc_serve.Serve.result with
  | Error (Tc_serve.Serve.Crashed _) -> ()
  | _ -> fail "expected a Crashed error"

let test_dedup_single_generation () =
  let s = open_session ctx in
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      (* same size class (extents round to the same powers of two) *)
      Ok (req 2 "ab-ac-cb" [ ('a', 60); ('b', 60); ('c', 60) ]);
      Ok (req 3 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Ok (req 4 "abc-bda-dc" [ ('a', 32); ('b', 32); ('c', 32); ('d', 32) ]);
    ]
  in
  let report = Tc_serve.Serve.run s items in
  let sum = report.Tc_serve.Serve.summary in
  check Alcotest.int "two distinct plan keys" 2 sum.Tc_serve.Serve.distinct;
  check Alcotest.int "two generations" 2 sum.Tc_serve.Serve.generations;
  check Alcotest.int "duplicates are hits" 2 sum.Tc_serve.Serve.hits;
  (* duplicate requests dispatch identically *)
  match
    List.map (fun r -> r.Tc_serve.Serve.result) report.Tc_serve.Serve.responses
  with
  | [ Ok a; Ok b; Ok c; Ok _ ] ->
      check Alcotest.bool "same key" true
        (a.Tc_serve.Serve.key = b.Tc_serve.Serve.key
        && b.Tc_serve.Serve.key = c.Tc_serve.Serve.key);
      check Alcotest.bool "same decision" true
        (a.Tc_serve.Serve.engine = b.Tc_serve.Serve.engine
        && Float.equal a.Tc_serve.Serve.gflops b.Tc_serve.Serve.gflops)
  | _ -> fail "expected four Ok responses"

let test_degraded_batch () =
  let s = open_session { ctx with Cogent.Ctx.budget = Some 0 } in
  let report =
    Tc_serve.Serve.run s [ Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]) ]
  in
  check Alcotest.int "degraded request counted" 1
    report.Tc_serve.Serve.summary.Tc_serve.Serve.degraded;
  match (List.hd report.Tc_serve.Serve.responses).Tc_serve.Serve.result with
  | Ok o -> check Alcotest.bool "outcome flagged" true o.Tc_serve.Serve.degraded
  | Error e -> fail (Tc_serve.Serve.error_to_string e)

let test_warm_restart_regenerates_nothing () =
  let dir = fresh_dir () in
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Ok (req 2 "abc-bda-dc" [ ('a', 32); ('b', 32); ('c', 32); ('d', 32) ]);
      Ok (req 3 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Error (4, "bad JSON: oops");
    ]
  in
  let cold = open_session ~store:dir ctx in
  let r_cold = Tc_serve.Serve.run cold items in
  Tc_serve.Serve.close_session cold;
  check Alcotest.int "cold run generates" 2
    r_cold.Tc_serve.Serve.summary.Tc_serve.Serve.generations;
  let warm = open_session ~store:dir ctx in
  let r_warm = Tc_serve.Serve.run warm items in
  Tc_serve.Serve.close_session warm;
  let sum = r_warm.Tc_serve.Serve.summary in
  check Alcotest.int "warm store loaded both plans" 2 sum.Tc_serve.Serve.loaded;
  check Alcotest.int "warm run generates nothing" 0
    sum.Tc_serve.Serve.generations;
  check Alcotest.int "every ok request is a hit" 3 sum.Tc_serve.Serve.hits;
  (* the externally visible report is identical cold vs warm *)
  check Alcotest.bool "cold and warm reports agree" true
    (Tc_profile.Benchrep.equal_modulo_wall
       (Tc_serve.Serve.report_doc ~wall_s:0.0 r_cold)
       (Tc_serve.Serve.report_doc ~wall_s:0.0 r_warm))

(* ---- telemetry ---- *)

let contains s needle =
  let ln = String.length needle and ls = String.length s in
  let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
  go 0

(* Regression for `cogent serve --trace FILE` losing pool-side spans:
   with a trace installed in the caller and the default pool at jobs 4,
   the plan searches run on worker domains — their spans must still land
   in the installed context, request-stamped, and every dispatched
   request must carry predicted/actual/strategy attributes. *)
let test_serve_trace_regression () =
  Tc_par.Pool.set_default_jobs 4;
  Fun.protect ~finally:(fun () -> Tc_par.Pool.set_default_jobs 1) @@ fun () ->
  let t = Tc_obs.Trace.make () in
  let s = open_session ctx in
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Ok (req 2 "abc-bda-dc" [ ('a', 32); ('b', 32); ('c', 32); ('d', 32) ]);
    ]
  in
  let report =
    Tc_obs.Trace.with_installed t (fun () -> Tc_serve.Serve.run s items)
  in
  check Alcotest.int "no errors" 0
    report.Tc_serve.Serve.summary.Tc_serve.Serve.errors;
  let spans name =
    List.filter
      (function
        | Tc_obs.Trace.Span { name = n; _ } -> n = name | _ -> false)
      (Tc_obs.Trace.events t)
  in
  check Alcotest.bool "pool-side generation spans reached the trace" true
    (List.length (spans "driver.generate") >= 2);
  List.iter
    (fun ev ->
      match List.assoc_opt "request" (Tc_obs.Trace.event_args ev) with
      | Some (Tc_obs.Trace.String id) ->
          check Alcotest.bool "stamped with a req-NNN id" true
            (contains id "req-")
      | _ -> fail "generation span not request-stamped")
    (spans "serve.generate");
  let dispatches = spans "serve.request" in
  check Alcotest.int "one dispatch span per request" 2 (List.length dispatches);
  List.iter
    (fun ev ->
      let args = Tc_obs.Trace.event_args ev in
      List.iter
        (fun k ->
          check Alcotest.bool (Printf.sprintf "dispatch span has %s" k) true
            (List.mem_assoc k args))
        [ "request"; "predicted_ms"; "actual_ms"; "strategy"; "outcome" ])
    dispatches;
  (* the whole batch exports as valid Chrome JSON with request flows *)
  match Tc_obs.Json.parse (Tc_obs.Export.to_chrome (Tc_obs.Trace.events t)) with
  | Ok _ -> ()
  | Error e -> fail ("serve trace not valid chrome JSON: " ^ e)

(* Failed searches surface as buffered notices (printed by the CLI after
   the parallel section), never as mid-batch prints. *)
let test_notices_buffered () =
  let boom = Cogent.Ctx.make ~measure:(fun _ -> failwith "boom") () in
  let s = open_session boom in
  let report =
    Tc_serve.Serve.run s
      [ Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]) ]
  in
  check Alcotest.int "one notice per failed search" 1
    (List.length report.Tc_serve.Serve.notices);
  check Alcotest.bool "notice names the request" true
    (contains (List.hd report.Tc_serve.Serve.notices) "req-001");
  let ok = open_session ctx in
  let clean =
    Tc_serve.Serve.run ok
      [ Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]) ]
  in
  check Alcotest.int "clean batches have no notices" 0
    (List.length clean.Tc_serve.Serve.notices)

(* Every request — dispatched, malformed, failed — leaves exactly one
   flight-recorder entry. *)
let test_flight_recorder_entries () =
  Tc_obs.Flightrec.clear Tc_obs.Flightrec.global;
  let s = open_session ctx in
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Error (2, "bad JSON: oops");
      Ok (req 3 "not a contraction" [ ('a', 4) ]);
    ]
  in
  ignore (Tc_serve.Serve.run s items);
  let es = Tc_obs.Flightrec.entries Tc_obs.Flightrec.global in
  check (Alcotest.list Alcotest.string) "one entry per request, in order"
    [ "req-002"; "req-003"; "req-001" ]
    (List.map (fun e -> e.Tc_obs.Flightrec.request) es);
  (match es with
  | [ bad_json; bad_expr; dispatched ] ->
      check Alcotest.bool "malformed line records its error" true
        (bad_json.Tc_obs.Flightrec.error <> None);
      check Alcotest.bool "unparsable expr records its error" true
        (bad_expr.Tc_obs.Flightrec.error <> None);
      check Alcotest.bool "dispatched request records its strategy" true
        (dispatched.Tc_obs.Flightrec.strategy <> None);
      check Alcotest.bool "dispatched request records timings" true
        (List.mem_assoc "predicted_s" dispatched.Tc_obs.Flightrec.timings)
  | _ -> fail "expected three entries");
  Tc_obs.Flightrec.clear Tc_obs.Flightrec.global

(* ---- the audit hook ---- *)

(* With a collector attached, every dispatched request yields exactly one
   accuracy sample, in request order, with the interpreter-measured
   ground truth filled in; errored requests yield none.  The flight
   entry gains a regret_s timing and the summary counts regretted
   requests. *)
let test_audit_hook () =
  Tc_obs.Flightrec.clear Tc_obs.Flightrec.global;
  let collector = Tc_audit.Audit.collector () in
  let s =
    match Tc_serve.Serve.open_session ~audit:collector ctx with
    | Ok s -> s
    | Error m -> fail m
  in
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      (* same size class: served by req 1's plan, regret evaluated at
         its own extents *)
      Ok (req 2 "ab-ac-cb" [ ('a', 60); ('b', 60); ('c', 60) ]);
      Ok (req 3 "definitely not a contraction" [ ('a', 4) ]);
    ]
  in
  let report = Tc_serve.Serve.run s items in
  let samples = Tc_audit.Audit.samples collector in
  check (Alcotest.list Alcotest.string) "one sample per ok request, in order"
    [ "req-001"; "req-002" ]
    (List.map (fun smp -> smp.Tc_audit.Audit.request) samples);
  List.iter
    (fun smp ->
      check Alcotest.string "suite stamped" "serve" smp.Tc_audit.Audit.suite;
      check Alcotest.bool "regret is non-negative" true
        (smp.Tc_audit.Audit.regret_s >= 0.0);
      check Alcotest.bool "measured counters populated" true
        (Tc_audit.Audit.tx_total smp.Tc_audit.Audit.measured_tx > 0.0))
    samples;
  (match samples with
  | [ rep; dup ] ->
      check Alcotest.bool "shared plan key" true
        (rep.Tc_audit.Audit.key = dup.Tc_audit.Audit.key);
      (* the first request IS the representative: regret identically 0 *)
      check (Alcotest.float 0.0) "no regret on the representative" 0.0
        rep.Tc_audit.Audit.regret_s
  | _ -> fail "expected two samples");
  check Alcotest.int "summary counts regretted requests"
    (List.length
       (List.filter (fun smp -> smp.Tc_audit.Audit.regret_s > 0.0) samples))
    report.Tc_serve.Serve.summary.Tc_serve.Serve.regrets;
  List.iter
    (fun e ->
      match e.Tc_obs.Flightrec.error with
      | Some _ -> ()
      | None ->
          check Alcotest.bool "flight entry records regret_s" true
            (List.mem_assoc "regret_s" e.Tc_obs.Flightrec.timings))
    (Tc_obs.Flightrec.entries Tc_obs.Flightrec.global);
  Tc_obs.Flightrec.clear Tc_obs.Flightrec.global

(* Cold store vs warm restart must collect byte-identical samples: the
   ground truth is measured inside the generation fan-out when plans are
   fresh and recomputed from the cached plan when they are not, and the
   two must agree. *)
let test_audit_cold_warm_identical () =
  let dir = fresh_dir () in
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Ok (req 2 "abc-bda-dc" [ ('a', 32); ('b', 32); ('c', 32); ('d', 32) ]);
    ]
  in
  let batch () =
    let collector = Tc_audit.Audit.collector () in
    let s =
      match Tc_serve.Serve.open_session ~store:dir ~audit:collector ctx with
      | Ok s -> s
      | Error m -> fail m
    in
    ignore (Tc_serve.Serve.run s items);
    Tc_serve.Serve.close_session s;
    Tc_audit.Audit.samples collector
  in
  let cold = batch () in
  let warm = batch () in
  check Alcotest.int "both batches sampled everything" 2 (List.length cold);
  check Alcotest.bool "cold and warm samples are identical" true (cold = warm)

let test_flight_capacity_option () =
  Tc_obs.Flightrec.clear Tc_obs.Flightrec.global;
  let restore () = Tc_obs.Flightrec.set_capacity 128 in
  Fun.protect ~finally:restore @@ fun () ->
  let s =
    match Tc_serve.Serve.open_session ~flight_capacity:2 ctx with
    | Ok s -> s
    | Error m -> fail m
  in
  let items =
    [
      Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Ok (req 2 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
      Ok (req 3 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]);
    ]
  in
  ignore (Tc_serve.Serve.run s items);
  check Alcotest.int "ring resized" 2
    (Tc_obs.Flightrec.capacity Tc_obs.Flightrec.global);
  check (Alcotest.list Alcotest.string) "only the newest requests retained"
    [ "req-002"; "req-003" ]
    (List.map
       (fun e -> e.Tc_obs.Flightrec.request)
       (Tc_obs.Flightrec.entries Tc_obs.Flightrec.global));
  Tc_obs.Flightrec.clear Tc_obs.Flightrec.global

(* ---- request parsing ---- *)

let test_request_parsing () =
  let line =
    {|{"expr":"ab-ac-cb","sizes":"a=64,b=64,c=64","arch":"a100","precision":"fp32"}|}
  in
  (match Tc_serve.Request.of_line ~default:ctx ~id:7 line with
  | Error m -> fail m
  | Ok r ->
      check Alcotest.int "id" 7 r.Tc_serve.Request.id;
      check Alcotest.string "arch override" "A100"
        r.Tc_serve.Request.arch.Tc_gpu.Arch.name;
      check Alcotest.bool "precision override" true
        (Tc_gpu.Precision.equal Tc_gpu.Precision.FP32
           r.Tc_serve.Request.precision));
  (match Tc_serve.Request.of_line ~default:ctx ~id:1 "{\"expr\":\"ab-ac-cb\"}" with
  | Error _ -> ()
  | Ok _ -> fail "missing sizes must be rejected");
  match Tc_serve.Request.of_line ~default:ctx ~id:1 "not json" with
  | Error _ -> ()
  | Ok _ -> fail "non-JSON line must be rejected"

(* An extent above 2^61, where doubling overflows, must not loop in the
   cache key's power-of-two rounding: the line gets exactly one answer. *)
let test_hostile_extent_answers () =
  let line = {|{"expr":"ab-ac-cb","sizes":"a=2305843009213693953,b=4,c=4"}|} in
  let item = Tc_serve.Request.of_line ~default:ctx ~id:1 line in
  (match item with Ok _ -> () | Error m -> fail m);
  let report =
    Tc_serve.Serve.run (open_session ctx)
      [ Result.map_error (fun m -> (1, m)) item ]
  in
  match report.Tc_serve.Serve.responses with
  | [ { Tc_serve.Serve.result = Ok _; _ } ] -> ()
  | [ { Tc_serve.Serve.result = Error e; _ } ] ->
      fail (Tc_serve.Serve.error_to_string e)
  | _ -> fail "expected exactly one response"

(* ---- the schema race behind every consumer ---- *)

(* Bit-exact equality, floats included. *)
let bits x = Marshal.to_string x []

(* Serve the 48 TCCG entries on [ctx]'s device through a fresh store;
   returns the report and the served plans, exactly as the session cached
   them. *)
let serve_tccg ?audit ?(dir = fresh_dir ()) ctx =
  let s =
    match Tc_serve.Serve.open_session ~store:dir ?audit ctx with
    | Ok s -> s
    | Error m -> fail m
  in
  let report =
    Tc_serve.Serve.run s
      (List.map
         (fun e ->
           Ok
             {
               Tc_serve.Request.id = e.Tc_tccg.Suite.id;
               expr = e.Tc_tccg.Suite.expr;
               sizes = Sizes.of_list e.Tc_tccg.Suite.sizes;
               arch = ctx.Cogent.Ctx.arch;
               precision = ctx.Cogent.Ctx.precision;
             })
         Tc_tccg.Suite.all)
  in
  Tc_serve.Serve.close_session s;
  match Tc_serve.Planstore.load ~dir with
  | Ok rows -> (report, rows)
  | Error m -> fail m

(* Over the whole TCCG suite on a device with pipelined schemas and one
   without: [Simkernel.race] simulates each feasible schema once, in
   [Plan.feasible_schemas] order, and serve's dispatch and explain's
   schema comparison both report exactly its lanes. *)
let test_race_shared_by_consumers () =
  List.iter
    (fun (arch, precision) ->
      let ctx =
        Cogent.Ctx.make ~arch ~precision ~measure:Tc_sim.Simkernel.gflops ()
      in
      let report, served = serve_tccg ctx in
      List.iter2
        (fun e resp ->
          let name =
            Printf.sprintf "%s on %s/%s" e.Tc_tccg.Suite.name
              arch.Tc_gpu.Arch.name
              (Tc_gpu.Precision.to_string precision)
          in
          let same what a b =
            check Alcotest.bool (name ^ ": " ^ what) true (bits a = bits b)
          in
          match resp.Tc_serve.Serve.result with
          | Error err -> fail (name ^ ": " ^ Tc_serve.Serve.error_to_string err)
          | Ok o ->
              let plan =
                (List.assoc o.Tc_serve.Serve.key served).Cogent.Driver.plan
              in
              let race = Tc_sim.Simkernel.race plan in
              same "lanes in feasible_schemas order"
                (Cogent.Plan.feasible_schemas ~arch ~precision
                   plan.Cogent.Plan.mapping)
                (List.map fst race.Tc_sim.Simkernel.lanes);
              List.iter
                (fun (sc, r) ->
                  same
                    ("lane " ^ Tc_gpu.Schema.to_string sc)
                    (Tc_sim.Simkernel.run (Cogent.Plan.with_schema sc plan))
                    r)
                race.Tc_sim.Simkernel.lanes;
              same "served schema" (fst race.Tc_sim.Simkernel.chosen)
                o.Tc_serve.Serve.schema;
              same "served pipelined lane"
                (Option.map
                   (fun (sc, r) -> (sc, r.Tc_sim.Simkernel.time_s))
                   race.Tc_sim.Simkernel.pipelined)
                o.Tc_serve.Serve.pipelined;
              same "served classic time"
                race.Tc_sim.Simkernel.classic.Tc_sim.Simkernel.time_s
                o.Tc_serve.Serve.cogent_time_s;
              match
                Tc_explain.Explain.analyze ctx ~top:1 (Tc_tccg.Suite.problem e)
              with
              | Ok { Tc_explain.Explain.candidates = c :: _; _ } ->
                  let race = Tc_sim.Simkernel.race c.Tc_explain.Explain.plan in
                  same "explain pipelined lane"
                    race.Tc_sim.Simkernel.pipelined
                    c.Tc_explain.Explain.pipelined;
                  same "explain classic lane" race.Tc_sim.Simkernel.classic
                    c.Tc_explain.Explain.sim
              | Ok _ -> fail (name ^ ": explain returned no candidate")
              | Error err ->
                  fail (name ^ ": " ^ Cogent.Driver.error_to_string err))
        Tc_tccg.Suite.all report.Tc_serve.Serve.responses)
    [
      (Tc_gpu.Arch.a100, Tc_gpu.Precision.FP16);
      (Tc_gpu.Arch.v100, Tc_gpu.Precision.FP64);
    ]

(* The audit ledger records the dispatch serve made.  Under a model-only
   context the plan keeps the classic schema while serve's race may pick
   a pipelined lane, so a ledger that re-derived the decision from the
   plan's own schema would disagree with serve: the sample's strategy,
   its COGENT prediction and its own-extent kernel all follow the served
   schema. *)
let test_ledger_follows_serve () =
  let module Audit = Tc_audit.Audit in
  let module Serve = Tc_serve.Serve in
  let arch = Tc_gpu.Arch.a100 and precision = Tc_gpu.Precision.FP16 in
  let ctx = Cogent.Ctx.make ~arch ~precision () in
  let collector = Audit.collector () in
  let report, served = serve_tccg ~audit:collector ctx in
  let samples = Audit.samples collector in
  check Alcotest.int "one sample per request"
    (List.length Tc_tccg.Suite.all) (List.length samples);
  List.iter2
    (fun (e, resp) (smp : Audit.sample) ->
      let same what a b =
        check Alcotest.bool (e.Tc_tccg.Suite.name ^ ": " ^ what) true
          (bits a = bits b)
      in
      match resp.Serve.result with
      | Error err -> fail (Serve.error_to_string err)
      | Ok o ->
          let plan = (List.assoc o.Serve.key served).Cogent.Driver.plan in
          same "ledger strategy is serve's engine"
            (Serve.engine_name o.Serve.engine) smp.Audit.strategy;
          same "served prediction is the ledger's" o.Serve.predicted_s
            (match o.Serve.engine with
            | Serve.Cogent_kernel -> smp.Audit.pred_cogent_s
            | Serve.Ttgt_pipeline -> smp.Audit.pred_ttgt_s);
          same "predicted COGENT time is the served lane's"
            (Tc_sim.Simkernel.lane (Tc_sim.Simkernel.race plan) o.Serve.schema)
              .Tc_sim.Simkernel.time_s
            smp.Audit.pred_cogent_s;
          same "own COGENT time is the served schema's"
            (Tc_sim.Simkernel.run
               (Cogent.Plan.make ~problem:(Tc_tccg.Suite.problem e)
                  ~mapping:plan.Cogent.Plan.mapping ~arch ~precision
               |> Cogent.Plan.with_schema o.Serve.schema))
              .Tc_sim.Simkernel.time_s
            smp.Audit.own_cogent_s)
    (List.combine Tc_tccg.Suite.all report.Tc_serve.Serve.responses)
    samples

(* ---- verbatim rows ---- *)

module J = Tc_obs.Json
module Planstore = Tc_serve.Planstore

let store_text dir =
  In_channel.with_open_bin (Planstore.file ~dir) In_channel.input_all

let header = J.to_string (J.Obj [ ("schema", J.String Planstore.schema) ])

(* A store file holding exactly these row lines. *)
let write_store dir lines =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin (Planstore.file ~dir) (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (header :: lines))

let row_line k r =
  J.to_string
    (J.Obj [ ("key", J.String k); ("entry", Planstore.entry_to_json r) ])

let store_counter name =
  Option.value ~default:0.0
    (Tc_obs.Metrics.value Tc_obs.Metrics.global
       ("cogent.serve.planstore." ^ name))

(* Rows the store copied and encoded while [f] ran. *)
let copied_encoded f =
  let c = store_counter "rows_copied" and e = store_counter "rows_encoded" in
  f ();
  ( int_of_float (store_counter "rows_copied" -. c),
    int_of_float (store_counter "rows_encoded" -. e) )

(* One session lifetime that serves nothing: load, then save. *)
let reopen dir = Tc_serve.Serve.close_session (open_session ~store:dir ctx)

let drive_expr expr sizes = drive (Problem.of_string_exn expr ~sizes) ctx

(* A store written by this version and saved again unchanged is
   byte-identical, every row copied, on a device with pipelined schemas
   and on one without. *)
let test_verbatim_suite_store () =
  List.iter
    (fun (arch, precision) ->
      let name =
        arch.Tc_gpu.Arch.name ^ "/" ^ Tc_gpu.Precision.to_string precision
      in
      let ctx =
        Cogent.Ctx.make ~arch ~precision ~measure:Tc_sim.Simkernel.gflops ()
      in
      let dir = fresh_dir () in
      let _, rows = serve_tccg ~dir ctx in
      let cold = store_text dir in
      let copied, encoded = copied_encoded (fun () -> reopen dir) in
      check Alcotest.string (name ^ ": saved again byte-identical") cold
        (store_text dir);
      check Alcotest.int (name ^ ": every row copied") (List.length rows)
        copied;
      check Alcotest.int (name ^ ": no row encoded") 0 encoded)
    [
      (Tc_gpu.Arch.a100, Tc_gpu.Precision.FP16);
      (Tc_gpu.Arch.v100, Tc_gpu.Precision.FP64);
    ]

(* Three lifetimes, the second adding a row: every reload decodes the
   same [Driver.t] values, and the file is what encoding every row today
   writes.  The load and save spans carry their row counts. *)
let test_verbatim_lifetimes () =
  let dir = fresh_dir () in
  let lifetime items =
    let s = open_session ~store:dir ctx in
    ignore (Tc_serve.Serve.run s items);
    Tc_serve.Serve.close_session s;
    match Planstore.load ~dir with Ok rows -> rows | Error m -> fail m
  in
  let first =
    lifetime [ Ok (req 1 "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ]) ]
  in
  let trace = Tc_obs.Trace.make ~clock:(fun () -> 0.0) () in
  let second =
    Tc_obs.Trace.with_installed trace (fun () ->
        lifetime
          [
            Ok
              (req 2 "abc-bda-dc"
                 [ ('a', 32); ('b', 32); ('c', 32); ('d', 32) ]);
          ])
  in
  let third = lifetime [] in
  check Alcotest.int "the second lifetime added a row" 2 (List.length second);
  check Alcotest.bool "the first row decodes the same after two saves" true
    (first = List.filter (fun (k, _) -> List.mem_assoc k first) second);
  check Alcotest.bool "the third lifetime decodes the same rows" true
    (second = third);
  let fresh = fresh_dir () in
  Planstore.save ~dir:fresh third;
  check Alcotest.string "the file is a fresh encode of its rows"
    (store_text fresh) (store_text dir);
  let span name =
    List.find_map
      (function
        | Tc_obs.Trace.Span { name = n; args; _ } when n = name -> Some args
        | _ -> None)
      (Tc_obs.Trace.events trace)
  in
  let arg args k =
    match List.assoc_opt k args with
    | Some (Tc_obs.Trace.Int n) -> n
    | _ -> fail ("span arg " ^ k)
  in
  (match span "planstore.load" with
  | Some args ->
      check Alcotest.int "load span rows" 1 (arg args "rows");
      check Alcotest.bool "load span bytes" true (arg args "bytes" > 0)
  | None -> fail "no planstore.load span");
  match span "planstore.save" with
  | Some args ->
      check (Alcotest.list Alcotest.int) "save span rows, copied, encoded"
        [ 2; 1; 1 ]
        (List.map (arg args) [ "rows"; "copied"; "encoded" ]);
      check Alcotest.int "save span bytes" (String.length (store_text dir))
        (arg args "bytes")
  | None -> fail "no planstore.save span"

(* A duplicated key keeps its first row in the cache, as
   [Cache.install] does, and in the file, copied as it was written:
   hand-formatted rows are not renormalised. *)
let test_verbatim_duplicate_key () =
  let a = drive_expr "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ] in
  let b = drive_expr "ab-ac-cb" [ ('a', 128); ('b', 128); ('c', 128) ] in
  let spaced =
    Printf.sprintf "{ \"key\": \"k\",  \"entry\": %s }"
      (J.to_string (Planstore.entry_to_json a))
  in
  let dir = fresh_dir () in
  write_store dir [ spaced; row_line "k" b ];
  (match Planstore.read ~dir with
  | Error m -> fail m
  | Ok (rows, _) ->
      let cache = Cogent.Cache.create () in
      List.iter (fun (k, r) -> Cogent.Cache.install cache k r) rows;
      check Alcotest.bool "the cache keeps the first row" true
        (Cogent.Cache.entries cache = [ ("k", a) ]));
  let copied, encoded = copied_encoded (fun () -> reopen dir) in
  check Alcotest.string "the file keeps the first row, as written"
    (header ^ "\n" ^ spaced ^ "\n")
    (store_text dir);
  check (Alcotest.pair Alcotest.int Alcotest.int) "copied, encoded" (1, 0)
    (copied, encoded)

(* A row written before kernel schemas and the bound-abort counter
   decodes leniently and is upgraded by the next save. *)
let test_verbatim_upgrades_legacy_row () =
  let a = drive_expr "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ] in
  let legacy =
    match Planstore.entry_to_json a with
    | J.Obj kvs ->
        J.to_string
          (J.Obj
             [
               ("key", J.String "k");
               ( "entry",
                 J.Obj
                   (List.filter
                      (fun (f, _) ->
                        f <> "kernel_schema" && f <> "bound_aborted")
                      kvs) );
             ])
    | _ -> fail "entry is not an object"
  in
  let dir = fresh_dir () in
  write_store dir [ legacy ];
  let loaded =
    match Planstore.load ~dir with
    | Ok [ ("k", r) ] -> r
    | Ok _ -> fail "expected one row"
    | Error m -> fail m
  in
  let copied, encoded = copied_encoded (fun () -> reopen dir) in
  check Alcotest.string "the legacy row is re-encoded"
    (header ^ "\n" ^ row_line "k" loaded ^ "\n")
    (store_text dir);
  check (Alcotest.pair Alcotest.int Alcotest.int) "copied, encoded" (0, 1)
    (copied, encoded);
  match J.parse (List.nth (String.split_on_char '\n' (store_text dir)) 1) with
  | Ok j ->
      let entry = Option.get (J.member "entry" j) in
      check Alcotest.bool "the saved row names its schema and bound aborts" true
        (J.member "kernel_schema" entry <> None
        && J.member "bound_aborted" entry <> None)
  | Error m -> fail m

(* A corrupt row is counted at load, dropped by the next save, and the
   reload after that counts nothing. *)
let test_verbatim_drops_corrupt_row () =
  let a = drive_expr "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ] in
  let dir = fresh_dir () in
  write_store dir
    [ row_line "good" a; "{\"key\":\"bad\",\"entry\":{\"expr\":" ];
  let before = store_counter "corrupt_rows" in
  reopen dir;
  check (Alcotest.float 0.0) "the corrupt row is counted" (before +. 1.0)
    (store_counter "corrupt_rows");
  check Alcotest.string "the save keeps only the good row"
    (header ^ "\n" ^ row_line "good" a ^ "\n")
    (store_text dir);
  reopen dir;
  check (Alcotest.float 0.0) "the reload counts no corrupt row" (before +. 1.0)
    (store_counter "corrupt_rows")

(* A store file another writer replaced between load and save no longer
   holds the loaded rows' bytes: every row is encoded from the cache. *)
let test_verbatim_replaced_file () =
  let a = drive_expr "ab-ac-cb" [ ('a', 64); ('b', 64); ('c', 64) ] in
  let b =
    drive_expr "abc-bda-dc" [ ('a', 32); ('b', 32); ('c', 32); ('d', 32) ]
  in
  let dir = fresh_dir () in
  Planstore.save ~dir [ ("a", a); ("b", b) ];
  let encoded_text = store_text dir in
  let s = open_session ~store:dir ctx in
  write_store dir [ row_line "b" b; row_line "a" a ];
  let copied, encoded =
    copied_encoded (fun () -> Tc_serve.Serve.close_session s)
  in
  check Alcotest.string "re-encoded from the cache" encoded_text
    (store_text dir);
  check (Alcotest.pair Alcotest.int Alcotest.int) "copied, encoded" (0, 2)
    (copied, encoded)

let () =
  Alcotest.run "serve"
    [
      ( "planstore",
        [
          Gen.to_alcotest planstore_roundtrip;
          Alcotest.test_case "missing store is empty" `Quick
            test_planstore_missing_is_empty;
          Alcotest.test_case "wrong schema rejected" `Quick
            test_planstore_rejects_wrong_schema;
          Alcotest.test_case "corrupt trailing row skipped" `Quick
            test_planstore_skips_corrupt_row;
          Alcotest.test_case "verbatim: TCCG store saved again unchanged"
            `Quick test_verbatim_suite_store;
          Alcotest.test_case "verbatim: three lifetimes decode the same"
            `Quick test_verbatim_lifetimes;
          Alcotest.test_case "verbatim: duplicated key keeps its first row"
            `Quick test_verbatim_duplicate_key;
          Alcotest.test_case "verbatim: legacy row upgraded on save" `Quick
            test_verbatim_upgrades_legacy_row;
          Alcotest.test_case "verbatim: corrupt row dropped on save" `Quick
            test_verbatim_drops_corrupt_row;
          Alcotest.test_case "verbatim: replaced file re-encoded" `Quick
            test_verbatim_replaced_file;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget degrades gracefully" `Quick
            test_budget_degrades_gracefully;
          Alcotest.test_case "batch completes with typed errors" `Quick
            test_batch_completes_with_typed_errors;
          Alcotest.test_case "crash is a per-request error" `Quick
            test_crash_is_per_request;
          Alcotest.test_case "dedup: one search per key" `Quick
            test_dedup_single_generation;
          Alcotest.test_case "near-zero budget flags the batch" `Quick
            test_degraded_batch;
          Alcotest.test_case "warm restart regenerates nothing" `Quick
            test_warm_restart_regenerates_nothing;
          Alcotest.test_case "request parsing" `Quick test_request_parsing;
          Alcotest.test_case "extent above 2^61 gets one answer" `Quick
            test_hostile_extent_answers;
        ] );
      ( "race",
        [
          Alcotest.test_case "one race behind serve and explain (TCCG)"
            `Quick test_race_shared_by_consumers;
          Alcotest.test_case "ledger records serve's dispatch (TCCG)"
            `Quick test_ledger_follows_serve;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "pool-side spans land in the installed trace"
            `Quick test_serve_trace_regression;
          Alcotest.test_case "failure notices are buffered" `Quick
            test_notices_buffered;
          Alcotest.test_case "flight recorder: one entry per request" `Quick
            test_flight_recorder_entries;
          Alcotest.test_case "audit hook samples every dispatch" `Quick
            test_audit_hook;
          Alcotest.test_case "audit samples identical cold vs warm" `Quick
            test_audit_cold_warm_identical;
          Alcotest.test_case "flight_capacity resizes the global ring" `Quick
            test_flight_capacity_option;
        ] );
    ]
