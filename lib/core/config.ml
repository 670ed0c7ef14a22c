open Sim

type t = {
  n : int;
  f : int;
  alpha : int;
  bft_size : int;
  k : int;
  checkpoint_interval : int;
  payload : int;
  s : int;
  datablock_timeout : Sim_time.span;
  proposal_timeout : Sim_time.span;
  view_timeout : Sim_time.span;
  fetch_grace : Sim_time.span;
  cost : Crypto.Cost_model.t;
  cores : int;
  priority_channels : bool;
  leader_generates_datablocks : bool;
  punish_equivocators : bool;
  mempool_cap : int;
  pace_on_pressure : bool;
}

let paper_batch_sizes ~n =
  if n <= 64 then (2000, 100)
  else if n <= 128 then (3000, 300)
  else if n <= 256 then (4000, 300)
  else (4000, 400)

let make ~n ?alpha ?bft_size ?(k = 32) ?checkpoint_interval ?(payload = 128) ?(s = 1)
    ?(datablock_timeout = 0L) ?(proposal_timeout = 0L)
    ?(view_timeout = Sim_time.s 4) ?(fetch_grace = Sim_time.s 1)
    ?(cost = Crypto.Cost_model.paper) ?(cores = 4)
    ?(priority_channels = true)
    ?(leader_generates_datablocks = false) ?(punish_equivocators = false)
    ?(mempool_cap = 0) ?(pace_on_pressure = false) () =
  if n < 4 then invalid_arg "Config.make: n must be at least 4";
  if mempool_cap < 0 then invalid_arg "Config.make: mempool_cap must be >= 0";
  let default_alpha, default_bft = paper_batch_sizes ~n in
  let alpha = Option.value alpha ~default:default_alpha in
  let bft_size = Option.value bft_size ~default:default_bft in
  if alpha < 1 then invalid_arg "Config.make: alpha must be positive";
  if bft_size < 1 then invalid_arg "Config.make: bft_size must be positive";
  if k < 2 then invalid_arg "Config.make: k must be at least 2";
  let checkpoint_interval = Option.value checkpoint_interval ~default:(k / 2) in
  if checkpoint_interval < 1 || checkpoint_interval > k then
    invalid_arg "Config.make: checkpoint interval must be in [1, k]";
  { n;
    f = (n - 1) / 3;
    alpha;
    bft_size;
    k;
    checkpoint_interval;
    payload;
    s;
    datablock_timeout;
    proposal_timeout;
    view_timeout;
    fetch_grace;
    cost;
    cores;
    priority_channels;
    leader_generates_datablocks;
    punish_equivocators;
    mempool_cap;
    pace_on_pressure }

let quorum t = (2 * t.f) + 1
let max_faulty t = t.f
let leader_of_view t v = v mod t.n
let requests_per_bftblock t = t.alpha * t.bft_size

let pp fmt t =
  Format.fprintf fmt "n=%d f=%d alpha=%d bft_size=%d k=%d payload=%dB s=%d" t.n t.f t.alpha
    t.bft_size t.k t.payload t.s
