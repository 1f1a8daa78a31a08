let value_to_json : Trace.value -> Json.t = function
  | Trace.Bool b -> Json.Bool b
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.String s -> Json.String s

let args_to_json args =
  Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) args)

(* Each recording domain gets its own Chrome thread: tid = track + 1
   (track numbers are assigned by the deterministic event sequence, see
   {!Trace}), so multi-domain pool traces render as separate, correctly
   nested rows in Perfetto instead of one interleaved row. *)
let tid_of_track track = track + 1

let chrome_event ev =
  let common name cat ts track =
    [
      ("name", Json.String name);
      ("cat", Json.String cat);
      ("ts", Json.Float ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int (tid_of_track track));
    ]
  in
  match ev with
  | Trace.Span { name; cat; start_us; dur_us; track; args; _ } ->
      Json.Obj
        (common name cat start_us track
        @ [
            ("ph", Json.String "X");
            ("dur", Json.Float dur_us);
            ("args", args_to_json args);
          ])
  | Trace.Instant { name; cat; ts_us; track; args } ->
      Json.Obj
        (common name cat ts_us track
        @ [
            ("ph", Json.String "i");
            ("s", Json.String "t");
            ("args", args_to_json args);
          ])
  | Trace.Counter { name; ts_us; track; value } ->
      Json.Obj
        (common name "counter" ts_us track
        @ [
            ("ph", Json.String "C");
            ("args", Json.Obj [ ("value", Json.Float value) ]);
          ])

(* One thread_name metadata record per track so Perfetto labels the rows. *)
let thread_metadata events =
  let tracks =
    List.sort_uniq Int.compare
      (List.map
         (function
           | Trace.Span { track; _ }
           | Trace.Instant { track; _ }
           | Trace.Counter { track; _ } ->
               track)
         events)
  in
  List.map
    (fun track ->
      Json.Obj
        [
          ("name", Json.String "thread_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int (tid_of_track track));
          ( "args",
            Json.Obj
              [
                ( "name",
                  Json.String
                    (if track = 0 then "main" else Printf.sprintf "worker-%d" track)
                );
              ] );
        ])
    tracks

let request_of ev =
  match
    List.assoc_opt "request" (Trace.event_args ev)
  with
  | Some (Trace.String id) -> Some id
  | _ -> None

(* Flow events binding one request's spans — which may sit on different
   tracks when the pool fanned the request's work out — into a single
   connected tree (Perfetto draws the arrows).  Flow ids are assigned by
   first appearance of the request id in the (deterministic) event list. *)
let request_flows events =
  let order = ref [] and table = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match (ev, request_of ev) with
      | Trace.Span { start_us; track; _ }, Some id ->
          let spans =
            match Hashtbl.find_opt table id with
            | Some l -> l
            | None ->
                order := id :: !order;
                []
          in
          Hashtbl.replace table id ((start_us, track) :: spans)
      | _ -> ())
    events;
  List.concat
    (List.mapi
       (fun k id ->
         match List.rev (Hashtbl.find table id) with
         | [] | [ _ ] -> []  (* a single-span request needs no flow *)
         | spans ->
             let last = List.length spans - 1 in
             List.mapi
               (fun i (ts, track) ->
                 let ph = if i = 0 then "s" else if i = last then "f" else "t" in
                 Json.Obj
                   ([
                      ("name", Json.String "request");
                      ("cat", Json.String "request");
                      ("ph", Json.String ph);
                      ("id", Json.Int (k + 1));
                      ("ts", Json.Float ts);
                      ("pid", Json.Int 1);
                      ("tid", Json.Int (tid_of_track track));
                      ("args", Json.Obj [ ("request", Json.String id) ]);
                    ]
                   @ if ph = "f" then [ ("bp", Json.String "e") ] else []))
               spans)
       (List.rev !order))

let to_chrome events =
  Json.to_string
    (Json.Obj
       [
         ( "traceEvents",
           Json.List
             (thread_metadata events
             @ List.map chrome_event events
             @ request_flows events) );
         ("displayTimeUnit", Json.String "ms");
       ])

let write_chrome ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome events))
