(* Tests for Tc_obs (tracing, metrics, JSON, exporters) and the explain
   layer built on top of it.  Everything uses injected virtual clocks or
   isolated registries, so results are fully deterministic. *)

open Tc_obs

let check = Alcotest.check
let fail = Alcotest.fail

(* A deterministic clock: every read advances by 1 ms. *)
let ticker () =
  let now = ref 0.0 in
  fun () ->
    let v = !now in
    now := v +. 0.001;
    v

(* ---- Trace: span nesting and ordering ---- *)

let test_span_nesting () =
  let t = Trace.make ~clock:(ticker ()) () in
  let r =
    Trace.with_span ~t "outer" (fun () ->
        Trace.with_span ~t "inner1" (fun () -> ());
        Trace.with_span ~t "inner2" (fun () -> ());
        42)
  in
  check Alcotest.int "result passes through" 42 r;
  match Trace.events t with
  | [
   Trace.Span { name = "outer"; depth = 0; _ };
   Trace.Span { name = "inner1"; depth = 1; _ };
   Trace.Span { name = "inner2"; depth = 1; _ };
  ] ->
      ()
  | evs ->
      fail
        (Printf.sprintf "unexpected events (%d): %s" (List.length evs)
           (String.concat ", "
              (List.map
                 (function
                   | Trace.Span { name; depth; _ } ->
                       Printf.sprintf "span %s@%d" name depth
                   | Trace.Instant { name; _ } -> "instant " ^ name
                   | Trace.Counter { name; _ } -> "counter " ^ name)
                 evs)))

let test_span_durations () =
  let t = Trace.make ~clock:(ticker ()) () in
  Trace.with_span ~t "a" (fun () -> Trace.with_span ~t "b" (fun () -> ()));
  match Trace.events t with
  | [
   Trace.Span { name = na; start_us = sa; dur_us = da; _ };
   Trace.Span { name = nb; start_us = sb; dur_us = db; _ };
  ] ->
      check Alcotest.string "names" "a,b" (na ^ "," ^ nb);
      check Alcotest.bool "child starts after parent" true (sb >= sa);
      check Alcotest.bool "parent spans child" true (da >= db)
  | _ -> fail "expected two spans"

let test_span_exception_unwind () =
  let t = Trace.make ~clock:(ticker ()) () in
  (try
     Trace.with_span ~t "boom" (fun () -> raise Exit)
   with Exit -> ());
  (match Trace.events t with
  | [ Trace.Span { name = "boom"; depth = 0; _ } ] -> ()
  | _ -> fail "span not closed on exception");
  (* The stack unwound: a later span is again at depth 0. *)
  Trace.with_span ~t "after" (fun () -> ());
  match Trace.events t with
  | [ _; Trace.Span { name = "after"; depth = 0; _ } ] -> ()
  | _ -> fail "stack not unwound after exception"

let test_pay_for_use () =
  (* No context installed and none passed: with_span is exactly [f ()]. *)
  check Alcotest.bool "no ambient context" true (Trace.installed () = None);
  check Alcotest.bool "disabled" false (Trace.enabled ());
  let calls = ref 0 in
  let r =
    Trace.with_span "ignored" (fun () ->
        incr calls;
        "value")
  in
  check Alcotest.string "passthrough result" "value" r;
  check Alcotest.int "thunk ran once" 1 !calls;
  Trace.instant "ignored";
  Trace.counter "ignored" 1.0;
  Trace.add_args [ ("k", Trace.Int 1) ]

let test_with_installed_restores () =
  let t1 = Trace.make ~clock:(ticker ()) () in
  let t2 = Trace.make ~clock:(ticker ()) () in
  (* physical equality: contexts contain closures *)
  let is_installed t =
    match Trace.installed () with Some x -> x == t | None -> false
  in
  Trace.with_installed t1 (fun () ->
      check Alcotest.bool "t1 installed" true (is_installed t1);
      Trace.with_installed t2 (fun () ->
          Trace.with_span "in-t2" (fun () -> ()));
      check Alcotest.bool "t1 restored" true (is_installed t1));
  check Alcotest.bool "nothing installed after" true (Trace.installed () = None);
  check Alcotest.int "t2 got the span" 1 (List.length (Trace.events t2));
  check Alcotest.int "t1 got nothing" 0 (List.length (Trace.events t1))

(* ---- Metrics ---- *)

let test_metrics_counters () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "x.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check (Alcotest.option (Alcotest.float 0.0)) "counter value" (Some 5.0)
    (Metrics.value reg "x.count");
  (* Registration is idempotent: same instrument. *)
  Metrics.incr (Metrics.counter ~registry:reg "x.count");
  check (Alcotest.option (Alcotest.float 0.0)) "shared instrument" (Some 6.0)
    (Metrics.value reg "x.count");
  (* Kind mismatch is an error. *)
  (match Metrics.gauge ~registry:reg "x.count" with
  | exception Invalid_argument _ -> ()
  | _ -> fail "kind mismatch accepted")

let test_metrics_snapshot_deterministic () =
  let reg = Metrics.create () in
  Metrics.set (Metrics.gauge ~registry:reg "b.gauge") 2.5;
  Metrics.incr (Metrics.counter ~registry:reg "a.count");
  Metrics.observe (Metrics.histogram ~registry:reg "c.hist") 0.5;
  let names =
    List.map
      (function
        | Metrics.Counter_v { name; _ }
        | Metrics.Gauge_v { name; _ }
        | Metrics.Histogram_v { name; _ } ->
            name)
      (Metrics.snapshot reg)
  in
  check (Alcotest.list Alcotest.string) "sorted by name"
    [ "a.count"; "b.gauge"; "c.hist" ]
    names;
  Metrics.reset reg;
  check (Alcotest.option (Alcotest.float 0.0)) "reset zeroes" (Some 0.0)
    (Metrics.value reg "a.count");
  check Alcotest.int "registrations survive reset" 3
    (List.length (Metrics.snapshot reg))

(* Quantile estimation: known bucket counts give known interpolated
   values (Prometheus histogram_quantile semantics). *)
let test_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[ 1.0; 2.0; 4.0 ] "lat" in
  List.iter (Metrics.observe h)
    [ 0.5; 0.5; 1.5; 1.5; 1.5; 1.5; 3.0; 3.0; 3.0; 3.0 ];
  (* cumulative buckets: le=1 -> 2, le=2 -> 6, le=4 -> 10, +Inf -> 10 *)
  let item = List.hd (Metrics.snapshot reg) in
  let q p = Option.get (Metrics.quantile item p) in
  check (Alcotest.float 1e-9) "p50 interpolates inside (1,2]" 1.75 (q 0.5);
  check (Alcotest.float 1e-9) "p90 interpolates inside (2,4]" 3.5 (q 0.9);
  check (Alcotest.float 1e-9) "p0 is the floor" 0.0 (q 0.0);
  check (Alcotest.float 1e-9) "p100 is the top finite bound" 4.0 (q 1.0);
  check Alcotest.int "summary has the standard points" 3
    (List.length (Metrics.quantile_summary item));
  (* an observation beyond every finite bucket clamps to the highest
     finite bound *)
  Metrics.observe h 100.0;
  let item = List.hd (Metrics.snapshot reg) in
  check (Alcotest.float 1e-9) "overflow bucket clamps" 4.0
    (Option.get (Metrics.quantile item 0.99));
  check Alcotest.bool "non-histograms have no quantile" true
    (Metrics.quantile (Metrics.Counter_v { name = "c"; value = 1.0 }) 0.5
    = None);
  check Alcotest.bool "empty histograms have no quantile" true
    (Metrics.quantile
       (Metrics.Histogram_v
          { name = "h"; count = 0; sum = 0.0; buckets = [ (infinity, 0) ] })
       0.5
    = None)

(* Degenerate bucket populations the audit aggregation leans on: a single
   observation, and every observation past the last finite bound. *)
let test_quantile_edge_cases () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[ 1.0; 2.0; 4.0 ] "one" in
  Metrics.observe h 1.5;
  let item = List.hd (Metrics.snapshot reg) in
  let q p = Option.get (Metrics.quantile item p) in
  check (Alcotest.float 1e-9) "single observation: p50 interpolates" 1.5
    (q 0.5);
  check (Alcotest.float 1e-9) "single observation: p0 is the floor" 0.0
    (q 0.0);
  check (Alcotest.float 1e-9) "single observation: p100 is its bucket bound"
    2.0 (q 1.0);
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[ 1.0; 2.0 ] "over" in
  List.iter (Metrics.observe h) [ 5.0; 6.0; 7.0 ];
  let item = List.hd (Metrics.snapshot reg) in
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "all mass in overflow: p%g clamps" (p *. 100.0))
        2.0
        (Option.get (Metrics.quantile item p)))
    [ 0.5; 0.9; 0.99; 1.0 ]

(* The audit-instrument pipeline shape: model output computed on the
   pool (order-preserving), observed sequentially in request order.  The
   Prometheus exposition — bucket counts AND float sums — must then be
   byte-identical at any job count. *)
let audit_exposition_jobs_invariant =
  QCheck.Test.make ~count:30
    ~name:"audit metric exposition is jobs-invariant"
    QCheck.(small_list (float_bound_inclusive 2.0))
    (fun xs ->
      let expose jobs =
        let p = Tc_par.Pool.create ~jobs () in
        let errs =
          Fun.protect
            ~finally:(fun () -> Tc_par.Pool.shutdown p)
            (fun () ->
              Tc_par.Pool.map
                (fun x -> Float.abs (1.0 -. Float.exp (-.x)))
                xs)
        in
        let reg = Metrics.create () in
        let h =
          Metrics.histogram ~registry:reg
            ~buckets:[ 0.001; 0.01; 0.1; 0.5; 1.0 ]
            "cogent.audit.tx_rel_err"
        in
        let c = Metrics.counter ~registry:reg "cogent.audit.samples" in
        List.iter
          (fun e ->
            Metrics.incr c;
            Metrics.observe h e)
          errs;
        Metrics.to_prometheus (Metrics.snapshot reg)
      in
      String.equal (expose 1) (expose 4))

(* Prometheus exposition: exact bytes, including name sanitization and
   the implicit +Inf bucket. *)
let test_prometheus_exposition () =
  let reg = Metrics.create () in
  Metrics.incr ~by:5 (Metrics.counter ~registry:reg "serve.requests");
  Metrics.set (Metrics.gauge ~registry:reg "serve.hit_ratio") 0.25;
  let h = Metrics.histogram ~registry:reg ~buckets:[ 1.0; 2.0 ] "1lat-ms" in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  check Alcotest.string "text exposition"
    ("# TYPE _1lat_ms histogram\n"
   ^ "_1lat_ms_bucket{le=\"1\"} 1\n"
   ^ "_1lat_ms_bucket{le=\"2\"} 2\n"
   ^ "_1lat_ms_bucket{le=\"+Inf\"} 2\n"
   ^ "_1lat_ms_sum 2\n" ^ "_1lat_ms_count 2\n"
   ^ "# TYPE serve_hit_ratio gauge\n"
   ^ "serve_hit_ratio 0.25\n"
   ^ "# TYPE serve_requests counter\n"
   ^ "serve_requests 5\n")
    (Metrics.to_prometheus (Metrics.snapshot reg))

(* Counter determinism across repeated driver runs: the same generated
   problem planned twice yields byte-identical [cogent.prune.*] counters,
   and they are the search's own statistics. *)
let metrics_deterministic_on_generated =
  QCheck.Test.make ~count:30 ~name:"prune metrics deterministic"
    Gen.case_arbitrary (fun c ->
      let problem = c.Gen.problem in
      let ctx = Cogent.Ctx.default in
      let prune_counters () =
        Metrics.reset Metrics.global;
        ignore (Cogent.Driver.run_exn ctx problem);
        (* [reset] keeps registrations: skip counters still at zero. *)
        List.filter_map
          (function
            | Metrics.Counter_v { name; value }
              when value <> 0.0
                   && String.starts_with ~prefix:"cogent.prune." name ->
                Some (name, value)
            | _ -> None)
          (Metrics.snapshot Metrics.global)
      in
      let a = prune_counters () in
      let b = prune_counters () in
      let s =
        (Cogent.Pipeline.search ~topk:8 ctx.Cogent.Ctx.arch
           ctx.Cogent.Ctx.precision problem)
          .Cogent.Pipeline.stats
      in
      let expected =
        [
          ("cogent.prune.enumerated", float_of_int s.Cogent.Prune.enumerated);
          ("cogent.prune.kept", float_of_int s.Cogent.Prune.kept);
        ]
        @ (if s.Cogent.Prune.relaxed then [ ("cogent.prune.relaxed", 1.0) ]
           else [])
        @ List.map
            (fun (r, n) ->
              ( "cogent.prune.rejected." ^ Cogent.Prune.reason_slug r,
                float_of_int n ))
            s.Cogent.Prune.pruned
        |> List.filter (fun (_, v) -> v <> 0.0)
      in
      a = b && List.sort compare a = List.sort compare expected)

(* ---- Flight recorder ---- *)

let test_flightrec_ring () =
  let r = Flightrec.create ~capacity:3 () in
  check Alcotest.int "capacity" 3 (Flightrec.capacity r);
  for i = 0 to 4 do
    Flightrec.record ~recorder:r (Printf.sprintf "req-%03d" i)
  done;
  check Alcotest.int "recorded counts everything" 5 (Flightrec.recorded r);
  let es = Flightrec.entries r in
  check (Alcotest.list Alcotest.int) "retained suffix, oldest first" [ 2; 3; 4 ]
    (List.map (fun e -> e.Flightrec.seq) es);
  check (Alcotest.list Alcotest.string) "ids survive eviction"
    [ "req-002"; "req-003"; "req-004" ]
    (List.map (fun e -> e.Flightrec.request) es);
  Flightrec.clear r;
  check Alcotest.int "clear empties the ring" 0
    (List.length (Flightrec.entries r))

(* Resizing keeps the newest retained entries (in order) and the running
   sequence numbers; shrink drops the oldest first. *)
let test_flightrec_set_capacity () =
  let r = Flightrec.create ~capacity:4 () in
  for i = 0 to 5 do
    Flightrec.record ~recorder:r (Printf.sprintf "req-%03d" i)
  done;
  Flightrec.set_capacity ~recorder:r 2;
  check Alcotest.int "shrunk capacity" 2 (Flightrec.capacity r);
  check (Alcotest.list Alcotest.int) "shrink keeps the newest" [ 4; 5 ]
    (List.map (fun e -> e.Flightrec.seq) (Flightrec.entries r));
  Flightrec.set_capacity ~recorder:r 6;
  check Alcotest.int "regrown capacity" 6 (Flightrec.capacity r);
  check (Alcotest.list Alcotest.int) "grow retains entries" [ 4; 5 ]
    (List.map (fun e -> e.Flightrec.seq) (Flightrec.entries r));
  Flightrec.record ~recorder:r "req-006";
  check (Alcotest.list Alcotest.int) "sequence numbers continue" [ 4; 5; 6 ]
    (List.map (fun e -> e.Flightrec.seq) (Flightrec.entries r));
  check Alcotest.int "recorded still counts everything" 7
    (Flightrec.recorded r);
  (* same-size set is a no-op, not a clear *)
  Flightrec.set_capacity ~recorder:r 6;
  check Alcotest.int "same-size set keeps entries" 3
    (List.length (Flightrec.entries r));
  (* values below 1 clamp instead of raising *)
  Flightrec.set_capacity ~recorder:r 0;
  check Alcotest.int "clamped to 1" 1 (Flightrec.capacity r);
  check (Alcotest.list Alcotest.int) "newest entry survives the clamp" [ 6 ]
    (List.map (fun e -> e.Flightrec.seq) (Flightrec.entries r))

let test_flightrec_dump () =
  let r = Flightrec.create ~capacity:8 () in
  Flightrec.record ~recorder:r ~key:"k1" ~expr:"ab-ac-cb" ~strategy:"cogent"
    ~timings:[ ("predicted_s", 0.5); ("wall_s", 0.25) ]
    "req-000";
  Flightrec.record ~recorder:r ~error:"generation failed" "req-001";
  let path = Filename.temp_file "cogent_flight" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Flightrec.dump ~path r;
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lines =
    String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per entry" 2 (List.length lines);
  match List.map Json.parse lines with
  | [ Ok a; Ok b ] ->
      check Alcotest.bool "dispatched entry has a strategy, no error" true
        (Json.member "strategy" a = Some (Json.String "cogent")
        && Json.member "error" a = None
        && Json.member "timings" a <> None);
      check Alcotest.bool "failed entry has an error, no strategy" true
        (Json.member "error" b = Some (Json.String "generation failed")
        && Json.member "strategy" b = None)
  | _ -> fail "flight dump lines do not parse"

(* ---- Request scopes and tracks ---- *)

let test_request_scope () =
  let t = Trace.make ~clock:(ticker ()) () in
  Trace.with_installed t (fun () ->
      check
        (Alcotest.option Alcotest.string)
        "no request outside a scope" None
        (Trace.current_request ());
      Trace.with_request ~id:"req-007"
        ~attrs:[ ("expr", Trace.String "ab-ac-cb") ]
        "serve.request"
        (fun () ->
          check
            (Alcotest.option Alcotest.string)
            "current request id" (Some "req-007") (Trace.current_request ());
          Trace.with_span "inner" (fun () -> ());
          Trace.instant "ping");
      check
        (Alcotest.option Alcotest.string)
        "scope restored" None (Trace.current_request ()));
  let evs = Trace.events t in
  check Alcotest.int "three events" 3 (List.length evs);
  check Alcotest.bool "every event is request-stamped" true
    (List.for_all
       (fun ev ->
         List.assoc_opt "request" (Trace.event_args ev)
         = Some (Trace.String "req-007"))
       evs)

let test_worker_tracks () =
  (* Tracks are assigned in first-record order, so the main domain gets
     track 0 and the (later-recording) worker gets track 1 — regardless
     of Domain.self numbering. *)
  let t = Trace.make ~clock:(ticker ()) () in
  Trace.with_installed t (fun () ->
      Trace.with_span "main-span" (fun () -> ());
      let amb = Trace.capture () in
      Domain.join
        (Domain.spawn (fun () ->
             Trace.with_ambient amb (fun () ->
                 Trace.with_span "worker-span" (fun () -> ())))));
  match Trace.events t with
  | [
   Trace.Span { name = "main-span"; track = 0; _ };
   Trace.Span { name = "worker-span"; track = 1; _ };
  ] ->
      ()
  | _ -> fail "expected spans on tracks 0 and 1"

(* ---- Exporters ---- *)

let sample_trace () =
  let t = Trace.make ~clock:(ticker ()) () in
  Trace.with_span ~t ~cat:"test" ~args:[ ("n", Trace.Int 3) ] "root"
    (fun () ->
      Trace.instant ~t ~args:[ ("why", Trace.String "because") ] "ping";
      Trace.counter ~t "load" 0.75;
      Trace.with_span ~t "child" (fun () -> ()));
  t

let test_chrome_schema () =
  let s = Export.to_chrome (Trace.events (sample_trace ())) in
  match Json.parse s with
  | Error e -> fail ("chrome trace does not parse: " ^ e)
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          (* 4 sample events + 1 thread_name metadata record (one track). *)
          check Alcotest.int "all events exported" 5 (List.length evs);
          let phases =
            List.map
              (fun ev ->
                (match Json.member "pid" ev with
                | Some (Json.Int _) -> ()
                | _ -> fail "event missing pid");
                (match Json.member "name" ev with
                | Some (Json.String _) -> ()
                | _ ->
                    if Json.member "ph" ev <> Some (Json.String "C") then
                      fail "event missing name");
                match Json.member "ph" ev with
                | Some (Json.String ph) ->
                    if ph = "X" then (
                      (match Json.member "ts" ev with
                      | Some v when Json.to_float v <> None -> ()
                      | _ -> fail "X event missing ts");
                      match Json.member "dur" ev with
                      | Some v when Json.to_float v <> None -> ()
                      | _ -> fail "X event missing dur");
                    ph
                | _ -> fail "event missing ph")
              evs
          in
          check Alcotest.bool "has complete spans" true (List.mem "X" phases);
          check Alcotest.bool "has instant" true (List.mem "i" phases);
          check Alcotest.bool "has counter" true (List.mem "C" phases)
      | _ -> fail "no traceEvents array")

(* One request fanned across two domains: the Chrome export must name
   both thread rows and connect the request's spans with flow events. *)
let test_chrome_flows_and_threads () =
  let t = Trace.make ~clock:(ticker ()) () in
  Trace.with_installed t (fun () ->
      Trace.with_request ~id:"req-001" "serve.request" (fun () ->
          let amb = Trace.capture () in
          Domain.join
            (Domain.spawn (fun () ->
                 Trace.with_ambient amb (fun () ->
                     Trace.with_span "worker.item" (fun () -> ()))))));
  match Json.parse (Export.to_chrome (Trace.events t)) with
  | Error e -> fail ("chrome export does not parse: " ^ e)
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          let ph p ev = Json.member "ph" ev = Some (Json.String p) in
          check Alcotest.int "one thread_name record per track" 2
            (List.length (List.filter (ph "M") evs));
          let tids =
            List.filter (ph "X") evs
            |> List.filter_map (Json.member "tid")
            |> List.sort_uniq compare
          in
          check Alcotest.int "spans sit on two distinct threads" 2
            (List.length tids);
          check Alcotest.int "one flow start" 1
            (List.length (List.filter (ph "s") evs));
          check Alcotest.int "one flow finish" 1
            (List.length (List.filter (ph "f") evs))
      | _ -> fail "no traceEvents array")

(* ---- Json parser round-trip ---- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "x" ]);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> check Alcotest.bool "roundtrip equal" true (j = j')
  | Error e -> fail ("roundtrip parse failed: " ^ e)

(* ---- Driver ?trace and explain golden ---- *)

let eq1 =
  Tc_expr.Problem.of_string_exn "abcd-aebf-dfce"
    ~sizes:[ ('a', 48); ('b', 48); ('c', 48); ('d', 48); ('e', 32); ('f', 32) ]

(* Trees compared with floats by their bits, so -0.0, infinities and
   the last ulp all count. *)
let rec same_json a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Printf.sprintf "%h" x = Printf.sprintf "%h" y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 same_json xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && same_json x y) xs ys
  | _ -> a = b

(* Random trees: strings of arbitrary bytes (quotes, backslashes,
   control characters, UTF-8), ints up to the extremes, and floats from
   random bits (NaN, which renders as null, excepted). *)
let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 10) in
  let int_g =
    oneof
      [ small_signed_int; int; oneofl [ min_int; max_int; min_int + 1; -1; 0 ] ]
  in
  let float_g =
    oneof
      [
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            if Float.is_nan f then 0.5 else f)
          ui64;
        float_range (-1e6) 1e6;
        oneofl
          [ 0.0; -0.0; infinity; neg_infinity; 5e-324; max_float; 0.1; 1e21 ];
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int_g;
        map (fun f -> Json.Float f) float_g;
        map (fun s -> Json.String s) str;
      ]
  in
  sized_size (0 -- 30)
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 3)))
               );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 3)))) );
             ])

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json.parse (to_string j) = Ok j"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> same_json j j'
      | Error m -> QCheck.Test.fail_report m)

(* \u escapes, surrogate pairs for code points past the BMP, decode to
   the code points' UTF-8. *)
let json_unicode_escapes =
  QCheck.Test.make ~count:300
    ~name:"Json.parse decodes \\u escapes and surrogate pairs"
    QCheck.(
      make
        Gen.(
          list_size (0 -- 8)
            (oneof [ int_range 0 0xD7FF; int_range 0xE000 0x10FFFF ])))
    (fun codes ->
      let lit = Buffer.create 64 and utf8 = Buffer.create 64 in
      Buffer.add_char lit '"';
      List.iter
        (fun c ->
          Buffer.add_utf_8_uchar utf8 (Uchar.of_int c);
          if c < 0x10000 then Printf.bprintf lit "\\u%04x" c
          else
            let c = c - 0x10000 in
            Printf.bprintf lit "\\u%04X\\u%04x" (0xD800 lor (c lsr 10))
              (0xDC00 lor (c land 0x3FF)))
        codes;
      Buffer.add_char lit '"';
      Json.parse (Buffer.contents lit)
      = Ok (Json.String (Buffer.contents utf8)))

(* Byte-level mutations: replace, insert or delete a byte, truncate,
   insert a hostile snippet, or replace one run of digits. *)
let snippets =
  [|
    "\\u"; "\\uZZZZ"; "\\uD800"; "\\uDBFF\\u0041"; "\\uD800\\uZZ"; "\\";
    "-"; "1e999"; "99999999999999999999"; "\"a\":1,"; "null"; "[]"; "{}";
  |]

let numbers =
  [| "0"; "-1"; "1"; "4611686018427387903"; "99999999999999999999"; "1.5" |]

let replace_digit_run s k by =
  let n = String.length s in
  let rec run i seen =
    if i >= n then s
    else if s.[i] >= '0' && s.[i] <= '9' then begin
      let j = ref i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if seen = k then String.sub s 0 i ^ by ^ String.sub s !j (n - !j)
      else run !j (seen + 1)
    end
    else run (i + 1) seen
  in
  run 0 0

let mutate base edits =
  List.fold_left
    (fun s (op, at, c) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else at mod n in
      match op with
      | 0 when n > 0 -> String.mapi (fun i d -> if i = pos then c else d) s
      | 1 -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos)
      | 2 when n > 0 ->
          String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
      | 3 -> String.sub s 0 pos
      | 4 ->
          String.sub s 0 pos
          ^ snippets.(Char.code c mod Array.length snippets)
          ^ String.sub s pos (n - pos)
      | 5 ->
          replace_digit_run s (at mod 128)
            numbers.(Char.code c mod Array.length numbers)
      | _ -> s)
    base edits

let mutated_gen bases =
  let open QCheck.Gen in
  let byte =
    oneof
      [
        char;
        oneofl (List.of_seq (String.to_seq "0123456789-.eE\"\\[]{},:uabcdef "));
      ]
  in
  pair (oneofl bases) (list_size (1 -- 4) (triple (int_bound 5) nat byte))
  |> map (fun (base, edits) -> mutate base edits)

(* Stored rows of a classic V100/fp64 plan and a pipelined A100/fp16
   one, exactly as the plan store writes them. *)
let planstore_rows =
  List.map
    (fun (arch, precision) ->
      let ctx = Cogent.Ctx.make ~arch ~precision () in
      let d = Cogent.Driver.run_exn ctx eq1 in
      Json.to_string
        (Json.Obj
           [
             ("key", Json.String (Cogent.Cache.key ctx eq1));
             ("entry", Tc_serve.Planstore.entry_to_json d);
           ]))
    [
      (Tc_gpu.Arch.v100, Tc_gpu.Precision.FP64);
      (Tc_gpu.Arch.a100, Tc_gpu.Precision.FP16);
    ]

let request_lines =
  [
    {|{"expr":"abc-bda-dc","sizes":"a=312,b=312,c=312,d=296"}|};
    {|{"expr":"ab-ac-cb","sizes":"a=64,b=64,c=64","arch":"a100","precision":"fp16"}|};
    {|{"expr":"C[a,b] = A[a,c] * B[c,b]","sizes":"a=2305843009213693953,b=4,c=4"}|};
  ]

let never_raises =
  QCheck.Test.make ~count:2000
    ~name:"mutated rows and requests never make parse or entry_of_json raise"
    (QCheck.make ~print:Fun.id (mutated_gen (planstore_rows @ request_lines)))
    (fun line ->
      (match Json.parse line with
      | Ok j ->
          ignore (Tc_serve.Planstore.entry_of_json j);
          Option.iter
            (fun e -> ignore (Tc_serve.Planstore.entry_of_json e))
            (Json.member "entry" j)
      | Error _ -> ());
      true)



let test_driver_trace () =
  let t = Trace.make ~clock:(ticker ()) () in
  (match Cogent.Driver.run Cogent.Ctx.default ~trace:t eq1 with
  | Ok _ -> ()
  | Error e -> fail (Cogent.Driver.error_to_string e));
  let names =
    List.filter_map
      (function Trace.Span { name; _ } -> Some name | _ -> None)
      (Trace.events t)
  in
  List.iter
    (fun n ->
      check Alcotest.bool (Printf.sprintf "trace has span %S" n) true
        (List.mem n names))
    [ "driver.generate"; "driver.pipeline" ];
  (* The whole trace exports as valid Chrome JSON. *)
  match Json.parse (Export.to_chrome (Trace.events t)) with
  | Ok _ -> ()
  | Error e -> fail ("driver trace not valid chrome JSON: " ^ e)

let test_driver_trace_no_leak () =
  (* ?trace must not leave an ambient context installed. *)
  let t = Trace.make ~clock:(ticker ()) () in
  ignore (Cogent.Driver.run Cogent.Ctx.default ~trace:t eq1);
  check Alcotest.bool "no ambient context after generate" true
    (Trace.installed () = None)

let golden_path file =
  let beside_exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat "golden" file)
  in
  if Sys.file_exists beside_exe then beside_exe
  else if Sys.file_exists (Filename.concat "golden" file) then
    Filename.concat "golden" file
  else Filename.concat "test/golden" file

let read_golden file =
  let ic = open_in (golden_path file) in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_explain_golden () =
  match Tc_explain.Explain.analyze Cogent.Ctx.default eq1 with
  | Error e -> fail (Cogent.Driver.error_to_string e)
  | Ok report ->
      check Alcotest.string "golden explain report"
        (read_golden "explain_eq1.txt")
        (Tc_explain.Explain.render report)

let test_explain_json () =
  match Tc_explain.Explain.analyze Cogent.Ctx.default ~top:1 eq1 with
  | Error e -> fail (Cogent.Driver.error_to_string e)
  | Ok report -> (
      let j = Tc_explain.Explain.to_json report in
      (* Serializes and reparses to the same tree. *)
      (match Json.parse (Json.to_string j) with
      | Ok j' -> check Alcotest.bool "json roundtrip" true (j = j')
      | Error e -> fail ("explain json does not parse: " ^ e));
      match Json.member "candidates" j with
      | Some (Json.List [ _ ]) -> ()
      | _ -> fail "expected exactly one candidate with ~top:1")

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span durations" `Quick test_span_durations;
          Alcotest.test_case "exception unwind" `Quick
            test_span_exception_unwind;
          Alcotest.test_case "pay for use" `Quick test_pay_for_use;
          Alcotest.test_case "with_installed restores" `Quick
            test_with_installed_restores;
          Alcotest.test_case "request scope stamps events" `Quick
            test_request_scope;
          Alcotest.test_case "worker domains get their own tracks" `Quick
            test_worker_tracks;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "snapshot deterministic" `Quick
            test_metrics_snapshot_deterministic;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "quantile edge cases" `Quick
            test_quantile_edge_cases;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
          Gen.to_alcotest metrics_deterministic_on_generated;
          Gen.to_alcotest audit_exposition_jobs_invariant;
        ] );
      ( "flightrec",
        [
          Alcotest.test_case "ring retains the newest entries" `Quick
            test_flightrec_ring;
          Alcotest.test_case "set_capacity preserves the newest entries"
            `Quick test_flightrec_set_capacity;
          Alcotest.test_case "dump is well-formed JSONL" `Quick
            test_flightrec_dump;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome schema" `Quick test_chrome_schema;
          Alcotest.test_case "chrome flows and thread names" `Quick
            test_chrome_flows_and_threads;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Gen.to_alcotest json_roundtrip;
          Gen.to_alcotest json_unicode_escapes;
          Gen.to_alcotest never_raises;
        ] );
      ( "explain",
        [
          Alcotest.test_case "driver ?trace" `Quick test_driver_trace;
          Alcotest.test_case "no context leak" `Quick test_driver_trace_no_leak;
          Alcotest.test_case "golden report" `Quick test_explain_golden;
          Alcotest.test_case "json report" `Quick test_explain_json;
        ] );
    ]
