module J = Tc_obs.Json

let schema = "cogent-audit/1"
let file ~dir = Filename.concat dir "audit.jsonl"
let ( let* ) = Result.bind

let str name j = Result.bind (J.field name j) J.as_string
let boolean name j = Result.bind (J.field name j) J.as_bool
let num name j = Result.bind (J.field name j) J.as_float

(* ---- sample codec ---- *)

let tx_to_json (t : Audit.tx) =
  J.Obj
    [
      ("lhs", J.Float t.Audit.lhs);
      ("rhs", J.Float t.Audit.rhs);
      ("out", J.Float t.Audit.out);
    ]

let tx_of_json j =
  let* lhs = num "lhs" j in
  let* rhs = num "rhs" j in
  let* out = num "out" j in
  Ok { Audit.lhs; rhs; out }

let sample_to_json (s : Audit.sample) =
  J.Obj
    [
      ("suite", J.String s.Audit.suite);
      ("request", J.String s.request);
      ("key", J.String s.key);
      ("expr", J.String s.expr);
      ("arch", J.String s.arch);
      ("precision", J.String s.precision);
      ("strategy", J.String s.strategy);
      ("degraded", J.Bool s.degraded);
      ("pred_cogent_s", J.Float s.pred_cogent_s);
      ("pred_ttgt_s", J.Float s.pred_ttgt_s);
      ("own_cogent_s", J.Float s.own_cogent_s);
      ("own_ttgt_s", J.Float s.own_ttgt_s);
      ("own_approx", J.Bool s.own_approx);
      ("regret_s", J.Float s.regret_s);
      ("model_cost", J.Float s.model_cost);
      ("model_tx", tx_to_json s.model_tx);
      ("exact_tx", tx_to_json s.exact_tx);
      ("measured_tx", tx_to_json s.measured_tx);
      ("sim_time_s", J.Float s.sim_time_s);
    ]

let sample_of_json j =
  let* suite = str "suite" j in
  let* request = str "request" j in
  let* key = str "key" j in
  let* expr = str "expr" j in
  let* arch = str "arch" j in
  let* precision = str "precision" j in
  let* strategy = str "strategy" j in
  let* degraded = boolean "degraded" j in
  let* pred_cogent_s = num "pred_cogent_s" j in
  let* pred_ttgt_s = num "pred_ttgt_s" j in
  let* own_cogent_s = num "own_cogent_s" j in
  let* own_ttgt_s = num "own_ttgt_s" j in
  let* own_approx = boolean "own_approx" j in
  let* regret_s = num "regret_s" j in
  let* model_cost = num "model_cost" j in
  let* model_tx = Result.bind (J.field "model_tx" j) tx_of_json in
  let* exact_tx = Result.bind (J.field "exact_tx" j) tx_of_json in
  let* measured_tx = Result.bind (J.field "measured_tx" j) tx_of_json in
  let* sim_time_s = num "sim_time_s" j in
  Ok
    {
      Audit.suite;
      request;
      key;
      expr;
      arch;
      precision;
      strategy;
      degraded;
      pred_cogent_s;
      pred_ttgt_s;
      own_cogent_s;
      own_ttgt_s;
      own_approx;
      regret_s;
      model_cost;
      model_tx;
      exact_tx;
      measured_tx;
      sim_time_s;
    }

(* ---- I/O ---- *)

let load ~dir =
  Tc_obs.Jsonl.load ~kind:"audit ledger" ~row:"audit row"
    ~metrics:"cogent.audit.ledger" ~schema (file ~dir) sample_of_json
  |> Result.map (List.map fst)

let save ~dir samples =
  ignore (Tc_obs.Jsonl.save ~schema (file ~dir) sample_to_json samples)
