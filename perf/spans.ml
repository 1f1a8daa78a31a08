(* In-memory span recorder for the traced round.

   Spans wrap only the benchmark's own calls into the system's public
   functions (and the refine measure callback the benchmark supplies);
   [Tc_obs.Trace] is never installed, so the traced program runs the same
   code users run.  Each span keeps name, start, end, parent, request id
   and the minor words its domain allocated inside it.  Probe calls --
   extra calls made only to price a unit of work that sits inside
   [Serve.run] or [Driver.run] -- are named [probe.*] and run outside the
   request span, so they never count toward request latency. *)

type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;  (** index of the enclosing span; -1 for a root *)
  req : int;  (** request id; -1 outside a request *)
  words : float;
  domain : int;
}

type t = { lock : Mutex.t; mutable spans : span array; mutable n : int }

let create () = { lock = Mutex.create (); spans = [||]; n = 0 }

(* Open spans of the current domain, innermost first: (index, request). *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let dummy =
  { name = ""; start = 0.; stop = 0.; parent = -1; req = -1; words = 0.; domain = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let reserve t =
  locked t (fun () ->
      if t.n = Array.length t.spans then begin
        let bigger = Array.make (max 1024 (2 * t.n)) dummy in
        Array.blit t.spans 0 bigger 0 t.n;
        t.spans <- bigger
      end;
      t.n <- t.n + 1;
      t.n - 1)

(* [with_span t name f] runs [f], recording a span when tracing ([t] is
   [Some _]); [req] defaults to the enclosing span's request. *)
let with_span t ?req name f =
  match t with
  | None -> f ()
  | Some t ->
      let open_spans = Domain.DLS.get stack in
      let parent, inherited =
        match open_spans with (p, r) :: _ -> (p, r) | [] -> (-1, -1)
      in
      let req = Option.value req ~default:inherited in
      let id = reserve t in
      Domain.DLS.set stack ((id, req) :: open_spans);
      let w0 = Gc.minor_words () in
      let t0 = Stats.now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = Stats.now () in
          let words = Gc.minor_words () -. w0 in
          Domain.DLS.set stack open_spans;
          let s =
            { name; start = t0; stop = t1; parent; req; words;
              domain = (Domain.self () :> int) }
          in
          locked t (fun () -> t.spans.(id) <- s))

let spans t = Array.sub t.spans 0 t.n
let dur s = s.stop -. s.start

(* Duration of each span's direct children, by parent index. *)
let child_time spans =
  let c = Array.make (Array.length spans) 0.0 in
  Array.iter (fun s -> if s.parent >= 0 then c.(s.parent) <- c.(s.parent) +. dur s) spans;
  c

type row = { layer : string; calls : int; total_s : float; self_s : float; words : float }

(* Per-layer totals and self time (duration minus the part its child
   spans cover), in first-seen order. *)
let table t =
  let spans = spans t in
  let child = child_time spans in
  let rows = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i s ->
      let r =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None ->
            order := s.name :: !order;
            { layer = s.name; calls = 0; total_s = 0.; self_s = 0.; words = 0. }
      in
      Hashtbl.replace rows s.name
        { r with calls = r.calls + 1; total_s = r.total_s +. dur s;
          self_s = r.self_s +. dur s -. child.(i); words = r.words +. s.words })
    spans;
  List.rev_map (Hashtbl.find rows) !order

(* How far the child spans of every [root] span fall short of (or exceed)
   the roots' own duration, as a share of it. *)
let residual t ~root =
  let spans = spans t in
  let child = child_time spans in
  let total = ref 0.0 and covered = ref 0.0 in
  Array.iteri
    (fun i s ->
      if s.name = root then begin
        total := !total +. dur s;
        covered := !covered +. child.(i)
      end)
    spans;
  if !total = 0.0 then 0.0 else Float.abs (!total -. !covered) /. !total

let to_chrome t =
  let spans = spans t in
  let t0 = Array.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = Tc_obs.Json.Float (Float.round (x *. 1e7) /. 10.0) in
  Tc_obs.Json.(
    Obj
      [
        ( "traceEvents",
          List
            (Array.to_list
               (Array.map
                  (fun s ->
                    Obj
                      [
                        ("name", String s.name);
                        ("cat", String "perf");
                        ("ph", String "X");
                        ("ts", us (s.start -. t0));
                        ("dur", us (dur s));
                        ("pid", Int 1);
                        ("tid", Int s.domain);
                        ( "args",
                          Obj
                            [
                              ("req", Int s.req);
                              ("parent", Int s.parent);
                              ("minor_words", Float s.words);
                            ] );
                      ])
                  spans)) );
      ])
