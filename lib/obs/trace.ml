type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type args = (string * value) list

type event =
  | Span of {
      name : string;
      cat : string;
      start_us : float;
      dur_us : float;
      depth : int;
      track : int;
      args : args;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      track : int;
      args : args;
    }
  | Counter of { name : string; ts_us : float; track : int; value : float }

let event_args = function
  | Span { args; _ } | Instant { args; _ } -> args
  | Counter _ -> []

type open_span = {
  oseq : int;
  oname : string;
  ocat : string;
  ostart : float;  (* µs, relative to epoch *)
  odepth : int;
  otrack : int;
  mutable oargs : args;
}

type t = {
  id : int;  (* key for the per-domain span stacks *)
  clock : unit -> float;
  lock : Mutex.t;
  mutable epoch : float option;  (* clock value of the first event *)
  mutable next_seq : int;
  mutable next_track : int;
  mutable recorded : (int * event) list;  (* (begin seq, event), newest first *)
}

let next_id = Atomic.make 0

let make ?(clock = Clock.now) () =
  {
    id = Atomic.fetch_and_add next_id 1;
    clock;
    lock = Mutex.create ();
    epoch = None;
    next_seq = 0;
    next_track = 0;
    recorded = [];
  }

type request = { req_id : string; req_attrs : args }

(* Domain-local tracing state: the ambient context, the ambient request
   scope, and, per context, this domain's stack of open spans plus its
   track number.  Span *stacks* are domain-local (each domain nests its
   own spans), while the recorded-event sink, the sequence counter and
   the track counter live in [t] under its mutex — merging every
   domain's events by sequence number.  Tracks are handed out in the
   order domains first record into [t] (i.e. by the deterministic event
   sequence, never [Domain.self], whose numbering depends on how many
   pools were created before). *)
type dls_state = {
  mutable ambient : t option;
  mutable request : request option;
  stacks : (int, open_span list ref) Hashtbl.t;
  tracks : (int, int) Hashtbl.t;
}

let dls_key : dls_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        ambient = None;
        request = None;
        stacks = Hashtbl.create 4;
        tracks = Hashtbl.create 4;
      })

let install t = (Domain.DLS.get dls_key).ambient <- Some t
let uninstall () = (Domain.DLS.get dls_key).ambient <- None
let installed () = (Domain.DLS.get dls_key).ambient

(* The single-domain fast path: one DLS read and a field load — no
   allocation, no locking. *)
let enabled () = Option.is_some (Domain.DLS.get dls_key).ambient

let with_installed t f =
  let state = Domain.DLS.get dls_key in
  let saved = state.ambient in
  state.ambient <- Some t;
  Fun.protect ~finally:(fun () -> state.ambient <- saved) f

(* Full ambient state (context + request scope), for runtimes that move
   work between domains — [Tc_par.Pool] captures it on the submitting
   domain and re-installs it around items run on workers. *)
type ambient = { amb_t : t option; amb_req : request option }

let capture () =
  let state = Domain.DLS.get dls_key in
  { amb_t = state.ambient; amb_req = state.request }

let with_ambient amb f =
  let state = Domain.DLS.get dls_key in
  let saved_t = state.ambient and saved_r = state.request in
  state.ambient <- amb.amb_t;
  state.request <- amb.amb_req;
  Fun.protect
    ~finally:(fun () ->
      state.ambient <- saved_t;
      state.request <- saved_r)
    f

let resolve explicit =
  match explicit with Some _ -> explicit | None -> installed ()

let current_request () =
  match (Domain.DLS.get dls_key).request with
  | Some r -> Some r.req_id
  | None -> None

let stack_of t =
  let state = Domain.DLS.get dls_key in
  match Hashtbl.find_opt state.stacks t.id with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.replace state.stacks t.id s;
      s

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Assumes [t.lock] is held. *)
let now_us t =
  let raw = t.clock () in
  let epoch =
    match t.epoch with
    | Some e -> e
    | None ->
        t.epoch <- Some raw;
        raw
  in
  (raw -. epoch) *. 1e6

(* Assumes [t.lock] is held. *)
let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* This domain's track in [t], assigned on first use.  Assumes [t.lock]
   is held (the counter lives in [t]); the per-domain cache makes every
   later lookup lock-free in practice (still under the caller's lock). *)
let track_of t =
  let state = Domain.DLS.get dls_key in
  match Hashtbl.find_opt state.tracks t.id with
  | Some k -> k
  | None ->
      let k = t.next_track in
      t.next_track <- k + 1;
      Hashtbl.replace state.tracks t.id k;
      k

(* Stamp the ambient request id onto an event's args so every span and
   instant recorded inside a request scope — on any domain — is
   attributable to it. *)
let stamp_request args =
  match (Domain.DLS.get dls_key).request with
  | None -> args
  | Some r -> ("request", String r.req_id) :: args

let begin_span t ~cat ~args name =
  let stack = stack_of t in
  let args = stamp_request args in
  let span =
    locked t (fun () ->
        {
          oseq = fresh_seq t;
          oname = name;
          ocat = cat;
          ostart = now_us t;
          odepth = List.length !stack;
          otrack = track_of t;
          oargs = args;
        })
  in
  stack := span :: !stack;
  span

let end_span t span =
  let stack = stack_of t in
  locked t (fun () ->
      (* Close any spans the caller leaked below this one, then this one. *)
      let rec unwind = function
        | [] -> []
        | s :: rest ->
            let ev =
              Span
                {
                  name = s.oname;
                  cat = s.ocat;
                  start_us = s.ostart;
                  dur_us = now_us t -. s.ostart;
                  depth = s.odepth;
                  track = s.otrack;
                  args = s.oargs;
                }
            in
            t.recorded <- (s.oseq, ev) :: t.recorded;
            if s == span then rest else unwind rest
      in
      stack := unwind !stack)

let with_span ?t ?(cat = "cogent") ?(args = []) name f =
  match resolve t with
  | None -> f ()
  | Some t ->
      let span = begin_span t ~cat ~args name in
      Fun.protect ~finally:(fun () -> end_span t span) f

let with_request ?t ~id ?(attrs = []) name f =
  match resolve t with
  | None -> f ()
  | Some t ->
      let state = Domain.DLS.get dls_key in
      let saved = state.request in
      state.request <- Some { req_id = id; req_attrs = attrs };
      let span = begin_span t ~cat:"request" ~args:attrs name in
      Fun.protect
        ~finally:(fun () ->
          end_span t span;
          state.request <- saved)
        f

let add_args ?t args =
  match resolve t with
  | None -> ()
  | Some t -> (
      (* The innermost open span of *this* domain; arg mutation needs no
         lock because a span is only touched by the domain that opened
         it until [end_span] publishes it. *)
      match !(stack_of t) with
      | [] -> ()
      | span :: _ -> span.oargs <- span.oargs @ args)

let instant ?t ?(cat = "cogent") ?(args = []) name =
  match resolve t with
  | None -> ()
  | Some t ->
      let args = stamp_request args in
      locked t (fun () ->
          let seq = fresh_seq t in
          t.recorded <-
            (seq, Instant { name; cat; ts_us = now_us t; track = track_of t; args })
            :: t.recorded)

let counter ?t name value =
  match resolve t with
  | None -> ()
  | Some t ->
      locked t (fun () ->
          let seq = fresh_seq t in
          t.recorded <-
            (seq, Counter { name; ts_us = now_us t; track = track_of t; value })
            :: t.recorded)

let events t =
  locked t (fun () ->
      List.sort (fun (a, _) (b, _) -> Int.compare a b) t.recorded
      |> List.map snd)
