type span = { offset : int; length : int; digest : Digest.t }

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
    In_channel.with_open_bin path @@ fun ic ->
    match In_channel.input_line ic with
    | None ->
        Error (Printf.sprintf "%s: empty %s (missing schema header)" path kind)
    | Some header -> (
        match Json.parse header with
        | Ok (Json.Obj _ as h)
          when Json.member "schema" h = Some (Json.String schema) ->
            (* [offset] is where line [lineno] starts; the header is line 1. *)
            let rec rows lineno offset acc =
              match In_channel.input_line ic with
              | None -> List.rev acc
              | Some line ->
                  let length = String.length line in
                  let next = offset + length + 1 in
                  if String.trim line = "" then rows (lineno + 1) next acc
                  else
                    match decode_line line with
                    | Ok r ->
                        let digest = Digest.string line in
                        rows (lineno + 1) next
                          ((r, { offset; length; digest }) :: acc)
                    | Error m ->
                        skip lineno m;
                        rows (lineno + 1) next acc
            in
            Ok (rows 2 (String.length header + 1) [])
        | _ ->
            Error
              (Printf.sprintf "%s: not a %s %s (bad schema header)" path
                 schema noun))

type written = { rows : int; bytes : int; copied : int }

let save ~schema ?(copy = fun _ -> None) path encode rows =
  (* Copied rows are read back from [path] span by span, before it is
     replaced: one forward pass, since rows and spans both ascend by key.
     A span that no longer holds its bytes is encoded instead. *)
  let source =
    lazy
      (if Sys.file_exists path then
         let ic = open_in_bin path in
         Some (ic, in_channel_length ic)
       else None)
  in
  let buf = ref (Bytes.create 4096) in
  let verbatim r =
    match copy r with
    | None -> None
    | Some { offset; length; digest } -> (
        match Lazy.force source with
        | Some (ic, size) when offset + length <= size ->
            if Bytes.length !buf < length then buf := Bytes.create (2 * length);
            seek_in ic offset;
            really_input ic !buf 0 length;
            if Digest.subbytes !buf 0 length = digest then Some length
            else None
        | _ -> None)
  in
  let close_source () =
    if Lazy.is_val source then
      Option.iter (fun (ic, _) -> close_in_noerr ic) (Lazy.force source)
  in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let copied = ref 0 in
  let bytes =
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        close_source ())
      (fun () ->
        output_string oc
          (Json.to_string (Json.Obj [ ("schema", Json.String schema) ]));
        output_char oc '\n';
        List.iter
          (fun r ->
            (match verbatim r with
            | Some length ->
                incr copied;
                output oc !buf 0 length
            | None -> output_string oc (Json.to_string (encode r)));
            output_char oc '\n')
          rows;
        pos_out oc)
  in
  Sys.rename tmp path;
  { rows = List.length rows; bytes; copied = !copied }
