type entry = {
  seq : int;
  request : string;
  key : string;
  expr : string;
  strategy : string option;
  error : string option;
  timings : (string * float) list;
}

type t = {
  lock : Mutex.t;
  slots : entry option array;
      (* slot for record [seq] is [seq mod capacity] *)
  mutable next_seq : int;
}

let create ?(capacity = 128) () =
  {
    lock = Mutex.create ();
    slots = Array.make (max 1 capacity) None;
    next_seq = 0;
  }

let global = create ()

let capacity t = Array.length t.slots

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record ?(recorder = global) ?(key = "") ?(expr = "") ?strategy ?error
    ?(timings = []) request =
  locked recorder (fun () ->
      let seq = recorder.next_seq in
      recorder.next_seq <- seq + 1;
      recorder.slots.(seq mod capacity recorder) <-
        Some { seq; request; key; expr; strategy; error; timings })

let entries t =
  locked t (fun () ->
      let cap = capacity t in
      let first = max 0 (t.next_seq - cap) in
      List.filter_map
        (fun seq -> t.slots.(seq mod cap))
        (List.init (t.next_seq - first) (fun k -> first + k)))

let recorded t = locked t (fun () -> t.next_seq)

let clear t =
  locked t (fun () ->
      Array.fill t.slots 0 (capacity t) None;
      t.next_seq <- 0)

let entry_to_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("request", Json.String e.request);
       ("key", Json.String e.key);
       ("expr", Json.String e.expr);
     ]
    @ (match e.strategy with
      | Some s -> [ ("strategy", Json.String s) ]
      | None -> [])
    @ (match e.error with Some m -> [ ("error", Json.String m) ] | None -> [])
    @
    match e.timings with
    | [] -> []
    | ts ->
        [ ("timings", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) ts)) ]
    )

let to_jsonl es =
  String.concat "" (List.map (fun e -> Json.to_string (entry_to_json e) ^ "\n") es)

let dump ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl (entries t)))
