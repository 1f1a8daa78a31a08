(* Smoke test of the repository benchmark: every workload runs one
   untraced and one traced round of a few requests against a 32-key
   store.  The report must parse, name every end-to-end metric of
   BENCHMARK.json with its unit (and every per-layer metric) for every
   workload, count no failure, and read back through [compare]. *)

module Json = Tc_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("smoke: " ^ m);
      exit 1)
    fmt

let read file =
  match Json.parse (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> j
  | Error m -> fail "%s: %s" file m

let list k j = match Json.member k j with Some (Json.List l) -> l | _ -> fail "no list %S" k
let str k j = match Json.member k j with Some (Json.String s) -> s | _ -> fail "no string %S" k

let num k j =
  match Option.bind (Json.member k j) Json.to_float with
  | Some x -> x
  | None -> fail "no number %S" k

let run cmd =
  let code = Sys.command cmd in
  if code <> 0 then fail "%s exited %d" cmd code

let () =
  run "../main.exe trace --smoke --seed 1 --out smoke.json > smoke.log";
  let report = read "smoke.json" and bench = read "../../BENCHMARK.json" in
  let workloads = list "workloads" report in
  if List.map (str "name") workloads <> List.map (str "name") (list "workloads" bench)
  then fail "report workloads differ from BENCHMARK.json";
  List.iter
    (fun w ->
      let name = str "name" w in
      let find n = List.find_opt (fun m -> str "name" m = n) (list "metrics" w) in
      List.iter
        (fun e ->
          match find (str "name" e) with
          | None -> fail "%s: no metric %s" name (str "name" e)
          | Some m ->
              if str "unit" m <> str "unit" e then
                fail "%s: %s in %s, not %s" name (str "name" e) (str "unit" m) (str "unit" e);
              let v = num "value" m in
              if not (Float.is_finite v && v > 0.0) then
                fail "%s: %s = %g" name (str "name" e) v)
        (list "end_to_end" bench);
      (match find "failed_ratio" with
      | Some m when num "value" m = 0.0 -> ()
      | _ -> fail "%s: failed_ratio is not 0" name);
      let layers = match Json.member "layers" w with Some l -> l | None -> fail "no layers" in
      List.iter
        (fun l ->
          if not (Float.is_finite (num (str "name" l) layers)) then
            fail "%s: layer metric %s" name (str "name" l))
        (list "per_layer" bench);
      ignore
        (list "traceEvents" (read (Printf.sprintf "_perf/trace-%s-seed1.json" name))))
    workloads;
  run "../main.exe compare smoke.json smoke.json --bounds ../../BENCHMARK.json > compare.log"
