let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> go (l :: acc)
      in
      go [])

let load ~kind ~row ~metrics ~schema path decode =
  let noun = List.hd (List.rev (String.split_on_char ' ' kind)) in
  let skip lineno m =
    Metrics.incr (Metrics.counter (metrics ^ ".corrupt_rows"));
    (* The last offending 1-based line number, so a truncated file is
       diagnosable from the metrics snapshot alone. *)
    Metrics.set
      (Metrics.gauge (metrics ^ ".corrupt_line"))
      (float_of_int lineno);
    Printf.eprintf "cogent: %s:%d: skipping corrupt %s (%s)\n%!" path lineno
      row m
  in
  let decode_line line =
    Result.bind
      (Result.map_error (fun m -> "bad JSON: " ^ m) (Json.parse line))
      decode
  in
  if not (Sys.file_exists path) then Ok []
  else
    match read_lines path with
    | [] ->
        Error (Printf.sprintf "%s: empty %s (missing schema header)" path kind)
    | header :: rows -> (
        match Json.parse header with
        | Ok (Json.Obj _ as h)
          when Json.member "schema" h = Some (Json.String schema) ->
            Ok
              (* [i] counts data rows; the header is file line 1. *)
              (List.mapi (fun i line -> (i + 2, line)) rows
              |> List.filter_map (fun (lineno, line) ->
                     if String.trim line = "" then None
                     else
                       match decode_line line with
                       | Ok r -> Some r
                       | Error m ->
                           skip lineno m;
                           None))
        | _ ->
            Error
              (Printf.sprintf "%s: not a %s %s (bad schema header)" path
                 schema noun))

let save ~schema path encode rows =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string (Json.Obj [ ("schema", Json.String schema) ]));
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc (Json.to_string (encode r));
          output_char oc '\n')
        rows);
  Sys.rename tmp path
