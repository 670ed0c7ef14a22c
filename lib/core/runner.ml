open Sim

type spec = {
  cfg : Config.t;
  link : Net.Network.link;
  seed : int64;
  load : float;
  duration : Sim_time.span;
  warmup : Sim_time.span;
  load_until : Sim_time.span option;
  byzantine : (Net.Node_id.t * Byzantine.t) list;
  stop_leader_at : Sim_time.span option;
  client_resend_timeout : Sim_time.span option;
  gst : Sim_time.span option;
  trace : bool;
  verify_domains : int option;
  stores : Store.sink array option;
  obs : Obs.Registry.t option;
}

let spec ~cfg ?(link = Net.Network.default_link) ?(seed = 42L) ?(load = 1e5)
    ?(duration = Sim_time.s 20) ?(warmup = Sim_time.s 5) ?load_until ?(byzantine = [])
    ?stop_leader_at ?client_resend_timeout ?gst ?(trace = false) ?verify_domains ?stores
    ?obs () =
  { cfg;
    link;
    seed;
    load;
    duration;
    warmup;
    load_until;
    byzantine;
    stop_leader_at;
    client_resend_timeout;
    gst;
    trace;
    verify_domains;
    stores;
    obs }

let silent_f cfg =
  let leader = Config.leader_of_view cfg 1 in
  let rec pick i acc =
    if List.length acc >= cfg.Config.f then List.rev acc
    else
      let id = i mod cfg.Config.n in
      if Net.Node_id.equal id leader then pick (i + 1) acc
      else pick (i + 1) ((id, Byzantine.Silent) :: acc)
  in
  (* Start after the leader so the picked set is stable and non-leader. *)
  pick (leader + 1) []

type bandwidth_view = {
  sent_bytes : int;
  received_bytes : int;
  sent_by_category : (string * int) list;
  received_by_category : (string * int) list;
}

type report = {
  n : int;
  offered : int;
  confirmed : int;
  throughput : float;
  goodput_bps : float;
  latency : Stats.Histogram.t;
  stage_seconds : (string * float) list;
  leader : bandwidth_view;
  non_leader : bandwidth_view;
  leader_bps : float;
  window_sec : float;
  executed_blocks : int;
  view_changes : int;
  final_view : int;
  vc_trigger_to_entry : float option;
  vc_bytes : int;
  equivocations_detected : int;
  all_confirmed : bool;
  safety_ok : bool;
}

type t = {
  sp : spec;
  engine : Engine.t;
  network : Msg.t Net.Network.t;
  replicas : Replica.t array;
  gen : Workload.Generator.t;
  trace : Trace.t;
  strategies : Byzantine.t array;
  (* f+1 confirmation accounting; [propose_times] is keyed per serial
     and pruned with the tally's counts at each checkpoint. *)
  tally : Workload.Tally.t;
  propose_times : (int, Sim_time.t) Hashtbl.t;
  (* Table-3 stage accumulators (request-weighted seconds), indexed by
     [stage_*] below. A float array keeps the per-confirmed-batch hot path
     free of the boxed-float stores and string-hashtable lookups a
     {!Stats.Breakdown} would cost; the report materializes the named
     list. *)
  stage_acc : float array;
  mutable first_vc_trigger : Sim_time.t option;
  mutable last_view_entry : Sim_time.t option;
  mutable view_changes : int;
  (* Unconfirmed client batches ordered by next re-send deadline (ns key,
     batch id as tiebreak; the value carries the attempt count for the
     exponential backoff). A scan pops only the entries that are due —
     O(due) — where the previous implementation swept the generator's
     entire batch history every half-timeout. Confirmed batches are
     dropped lazily when their deadline surfaces. *)
  resend_queue : (Workload.Request.t * int) Heap.t;
  (* One pool shared by every simulated replica when [spec.verify_domains]
     asks for one: workers only evaluate pure crypto, so sharing changes
     nothing observable and keeps domain count independent of n. *)
  verify_pool : Exec.Pool.t option;
  (* retained so [restart_replica] can rebuild a replica mid-run *)
  keys : (Crypto.Signature.public_key * Crypto.Signature.private_key) array;
  pks : Crypto.Signature.public_key array;
  tsetup : Crypto.Threshold.setup;
  tkeys : Crypto.Threshold.member_key array;
  hooks : Replica.hooks;
}

let engine t = t.engine
let network t = t.network
let replicas t = t.replicas
let generator t = t.gen
let metrics_report t = Option.map Obs.Registry.expose t.sp.obs
let trace t = t.trace

let honest_ids t =
  Array.to_list t.replicas
  |> List.filteri (fun i _ -> not (Byzantine.is_byzantine t.strategies.(i)))
  |> List.map Replica.id

let stage_generation = 0
and stage_delivery = 1
and stage_agreement = 2
and stage_response = 3

let stage_names =
  [| "Datablock Generation"; "Datablock Delivery"; "Agreement"; "Response to Client" |]

(* The (f+1)-th execution of a serial is the client-visible confirmation
   instant (a valid client response needs f+1 identical acks, §4.1); the
   tally counts each batch once, and the stage breakdown follows it. *)
let on_f1_execution t ~sn dbs =
  let now = Engine.now t.engine in
  let agree_start = Hashtbl.find_opt t.propose_times sn in
  List.iter
    (fun (db : Datablock.t) ->
      List.iter
        (fun (b : Workload.Request.t) ->
          if Workload.Tally.confirm t.tally ~at:now b then begin
            let w = float_of_int b.Workload.Request.count in
            let acc = t.stage_acc in
            let gen_span = Sim_time.to_sec Sim_time.(db.Datablock.created_at - b.Workload.Request.born) in
            acc.(stage_generation) <- acc.(stage_generation) +. (w *. Float.max 0. gen_span);
            (match agree_start with
             | Some p ->
               acc.(stage_delivery) <-
                 acc.(stage_delivery)
                 +. (w *. Float.max 0. (Sim_time.to_sec Sim_time.(p - db.Datablock.created_at)));
               acc.(stage_agreement) <-
                 acc.(stage_agreement)
                 +. (w *. Float.max 0. (Sim_time.to_sec Sim_time.(now - p)))
             | None -> ());
            acc.(stage_response) <-
              acc.(stage_response) +. (w *. Sim_time.to_sec t.sp.link.Net.Network.prop_delay)
          end)
        db.Datablock.batches)
    dbs

(* Checkpoint garbage collection: once the protocol's low watermark
   reaches [lw], no serial at or below it can produce a fresh (f+1)-th
   execution, so its counter and proposal time can go. Runs once per
   watermark value (n replicas report the same advance). *)
let prune_below t lw =
  if lw > Workload.Tally.pruned_below t.tally then begin
    Workload.Tally.prune_below t.tally lw;
    let stale =
      Hashtbl.fold (fun sn _ acc -> if sn <= lw then sn :: acc else acc) t.propose_times []
    in
    List.iter (Hashtbl.remove t.propose_times) stale
  end

let make_hooks t_ref =
  { Replica.on_execute =
      (fun ~id:_ ~sn _block dbs ->
        match !t_ref with
        | None -> ()
        | Some t -> if Workload.Tally.executed t.tally ~sn then on_f1_execution t ~sn dbs);
    on_view_change =
      (fun ~id:_ ~view ->
        match !t_ref with
        | None -> ()
        | Some t ->
          t.view_changes <- max t.view_changes (view - 1);
          t.last_view_entry <- Some (Engine.now t.engine));
    on_view_change_trigger =
      (fun ~id:_ ~abandoned:_ ->
        match !t_ref with
        | None -> ()
        | Some t ->
          if t.first_vc_trigger = None then t.first_vc_trigger <- Some (Engine.now t.engine));
    on_propose =
      (fun ~id:_ ~sn ~at ->
        match !t_ref with
        | None -> ()
        | Some t -> if not (Hashtbl.mem t.propose_times sn) then Hashtbl.add t.propose_times sn at);
    on_checkpoint =
      (fun ~id:_ ~lw ->
        match !t_ref with
        | None -> ()
        | Some t -> prune_below t lw)
  }

let resend_batch t (b : Workload.Request.t) =
  let copy = Workload.Request.resend_of b in
  (* Re-send to several deterministically chosen replicas; §4.1:
     s = 9 already gives > 99.99% probability of hitting an
     honest one (f + 1 would guarantee it but floods large
     clusters). *)
  let fanout = min 9 (min (Config.max_faulty t.sp.cfg + 1) (t.sp.cfg.Config.n - 1)) in
  let leader = Config.leader_of_view t.sp.cfg 1 in
  let targets =
    Workload.Assign.replicas_for ~n:t.sp.cfg.Config.n ~s:fanout ~leader
      ~key:b.Workload.Request.id
  in
  List.iter
    (fun dst ->
      Net.Network.inject t.network ~dst ~size:(Workload.Request.wire_bytes copy)
        ~category:"client-req" (fun () ->
          ignore (Replica.submit t.replicas.(dst) copy : Replica.admission)))
    targets

let schedule_resends t timeout =
  let period = Int64.div timeout 2L in
  let timeout_ns = Int64.to_int timeout in
  let rec scan () =
    let now_ns = Engine.now_ns t.engine in
    while
      (not (Heap.is_empty t.resend_queue)) && Heap.peek_key_ns t.resend_queue <= now_ns
    do
      let b, attempts = Heap.pop_value t.resend_queue in
      if not (Workload.Request.is_confirmed b) then begin
        resend_batch t b;
        (* Exponential backoff (capped): a recovering cluster is not
           re-flooded with its whole backlog every period. *)
        let attempts = attempts + 1 in
        let wait_ns = timeout_ns * min 8 (1 lsl attempts) in
        Heap.add_ns t.resend_queue ~key_ns:(now_ns + wait_ns) ~seq:b.Workload.Request.id
          (b, attempts)
      end
    done;
    if Sim_time.compare (Engine.now t.engine) t.sp.duration < 0 then
      ignore (Engine.schedule t.engine ~delay:period (fun () -> scan ()))
  in
  ignore (Engine.schedule t.engine ~delay:timeout (fun () -> scan ()))

let create sp =
  let cfg = sp.cfg in
  let engine = Engine.create ~seed:sp.seed () in
  let meta =
    if cfg.Config.priority_channels then Msg.meta
    else Net.Network.{ Msg.meta with priority = (fun _ -> Net.Nic.Low) }
  in
  let network = Net.Network.create engine ~n:cfg.Config.n ~meta ~link:sp.link in
  (match sp.gst with
   | Some gst ->
     let rng = Rng.split (Engine.rng engine) in
     Net.Network.set_extra_delay network
       (Net.Partial_sync.until_gst ~rng ~gst ~max_delay:cfg.Config.view_timeout)
   | None -> ());
  let key_rng = Rng.split (Engine.rng engine) in
  let keys = Array.init cfg.Config.n (fun _ -> Crypto.Signature.keygen key_rng) in
  let pks = Array.map fst keys in
  let tsetup, tkeys =
    Crypto.Threshold.keygen key_rng ~threshold:(2 * cfg.Config.f) ~parties:cfg.Config.n
  in
  let strategies = Array.make cfg.Config.n Byzantine.Honest in
  List.iter (fun (id, s) -> strategies.(id) <- s) sp.byzantine;
  let trace = Trace.create ~enabled:sp.trace ~capacity:1_000_000 () in
  let t_ref = ref None in
  let hooks = make_hooks t_ref in
  let verify_pool =
    match sp.verify_domains with
    | Some d when d > 0 -> Some (Exec.Pool.create ?obs:sp.obs ~domains:d ())
    | _ -> None
  in
  let store_of id = Option.map (fun stores -> stores.(id)) sp.stores in
  let replicas =
    Array.init cfg.Config.n (fun id ->
        let platform =
          Platform.of_sim ?verify_pool ?store:(store_of id) ~engine ~network ~id
            ~cores:cfg.Config.cores ()
        in
        Replica.create ~platform ~cfg ~id ~sk:(snd keys.(id)) ~pks ~tsetup
          ~tkey:tkeys.(id) ?obs:sp.obs ~strategy:strategies.(id) ~hooks ~trace ())
  in
  Array.iter Replica.start replicas;
  let leader = Config.leader_of_view cfg 1 in
  (* Clients avoid the leader (it generates no datablocks) unless the
     leader-generates ablation is on. *)
  let is_target id =
    (not (Net.Node_id.equal id leader)) || cfg.Config.leader_generates_datablocks
  in
  (* Clients do not know who is Byzantine; with re-sends enabled they
     spray over every target and rely on the timeout path, otherwise
     target honest replicas so offered = confirmable. *)
  let targets =
    List.filter
      (fun id ->
        is_target id
        && (sp.client_resend_timeout <> None || not (Byzantine.is_byzantine strategies.(id))))
      (List.init cfg.Config.n Fun.id)
  in
  let resend_queue = Heap.create () in
  (* Every new batch registers its first re-send deadline as it is born;
     the scanner in [schedule_resends] then only ever touches due
     entries. *)
  let on_batch =
    match sp.client_resend_timeout with
    | None -> None
    | Some timeout ->
      let timeout_ns = Int64.to_int timeout in
      Some
        (fun (b : Workload.Request.t) ->
          Heap.add_ns resend_queue
            ~key_ns:(Int64.to_int b.Workload.Request.born + timeout_ns)
            ~seq:b.Workload.Request.id (b, 0))
  in
  let gen =
    (* Coarser client batching at large scale keeps the event volume of
       the open-loop generator proportional to the offered load rather
       than to n. *)
    let tick = if cfg.Config.n >= 128 then Sim_time.ms 100 else Sim_time.ms 20 in
    let inject ~dst ~size cb = Net.Network.inject network ~dst ~size ~category:"client-req" cb in
    (* Client fan-out s > 1 (§4.1): each batch also goes to s - 1 extra
       mu-chosen replicas; the tally counts each batch id once. *)
    let fanned : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let submit ~target b =
      (* The sim client stays open-loop: verdicts are rendered but not
         acted on (an overload scenario's oracle reads the counters). *)
      ignore (Replica.submit replicas.(target) b : Replica.admission);
      if cfg.Config.s > 1 && (not b.Workload.Request.resend) && not (Hashtbl.mem fanned b.Workload.Request.id)
      then begin
        Hashtbl.add fanned b.Workload.Request.id ();
        Workload.Assign.replicas_for ~n:cfg.Config.n ~s:cfg.Config.s ~leader
          ~key:b.Workload.Request.id
        |> List.iter (fun dst ->
               if not (Net.Node_id.equal dst target) then
                 inject ~dst ~size:(Workload.Request.wire_bytes b) (fun () ->
                     ignore (Replica.submit replicas.(dst) b : Replica.admission)))
      end
    in
    Workload.Generator.start engine ~rate:sp.load ~payload:cfg.Config.payload ~targets ~tick
      ~inject ~submit ?on_batch
      ?until:(match sp.load_until with Some u -> Some u | None -> Some sp.duration)
      ()
  in
  let t =
    { sp;
      engine;
      network;
      replicas;
      gen;
      trace;
      strategies;
      tally = Workload.Tally.create ~f_plus_1:(Config.max_faulty cfg + 1) ?obs:sp.obs ();
      propose_times = Hashtbl.create 1024;
      stage_acc = Array.make (Array.length stage_names) 0.;
      first_vc_trigger = None;
      last_view_entry = None;
      view_changes = 0;
      resend_queue;
      verify_pool;
      keys;
      pks;
      tsetup;
      tkeys;
      hooks }
  in
  t_ref := Some t;
  (* Bandwidth accounting restarts when the warmup window closes. *)
  ignore (Engine.schedule_at engine ~at:sp.warmup (fun () -> Net.Network.reset_stats network));
  (match sp.stop_leader_at with
   | Some at ->
     ignore
       (Engine.schedule_at engine ~at (fun () ->
            Net.Network.set_down network leader true;
            Trace.recordf trace ~at ~tag:"leader.stopped" "%a" Net.Node_id.pp leader))
   | None -> ());
  (match sp.client_resend_timeout with
   | Some timeout -> schedule_resends t timeout
   | None -> ());
  t

let run_until t at = Engine.run ~until:at t.engine

(* Process restart mid-run: kill the replica, rebuild it from its durable
   store (the spec must have attached [stores]; with none attached the
   replacement restarts from genesis, which a safety check would catch).
   The replacement registers its own delivery handler on a fresh sim
   platform bound to the same network slot. *)
let restart_replica t id =
  Replica.halt t.replicas.(id);
  let store = Option.map (fun stores -> stores.(id)) t.sp.stores in
  let platform =
    Platform.of_sim ?verify_pool:t.verify_pool ?store ~engine:t.engine ~network:t.network ~id
      ~cores:t.sp.cfg.Config.cores ()
  in
  let r =
    Replica.recover ~platform ~cfg:t.sp.cfg ~id ~sk:(snd t.keys.(id)) ~pks:t.pks
      ~tsetup:t.tsetup ~tkey:t.tkeys.(id) ?obs:t.sp.obs ~strategy:t.strategies.(id)
      ~hooks:t.hooks ~trace:t.trace ()
  in
  t.replicas.(id) <- r;
  Net.Network.set_down t.network id false;
  Replica.start r

let check_safety t =
  match List.map (fun id -> Replica.ledger t.replicas.(id)) (honest_ids t) with
  | [] -> true
  | first :: rest -> List.for_all (Ledger.agree first) rest

let bandwidth_view t id =
  let acct = Net.Network.stats t.network id in
  { sent_bytes = Net.Bandwidth.total acct Net.Bandwidth.Sent;
    received_bytes = Net.Bandwidth.total acct Net.Bandwidth.Received;
    sent_by_category = Net.Bandwidth.by_category acct Net.Bandwidth.Sent;
    received_by_category = Net.Bandwidth.by_category acct Net.Bandwidth.Received }

let report t =
  let cfg = t.sp.cfg in
  let now = Engine.now t.engine in
  let from_ = t.sp.warmup and until = now in
  let window_sec = Sim_time.to_sec Sim_time.(until - from_) in
  let leader = Config.leader_of_view cfg 1 in
  let non_leader =
    List.find
      (fun id -> not (Net.Node_id.equal id leader))
      (honest_ids t)
  in
  let leader_view = bandwidth_view t leader in
  let throughput = Workload.Tally.throughput t.tally ~from_ ~until in
  let goodput_bps = Workload.Tally.goodput_bps t.tally ~from_ ~until in
  let vc_bytes =
    Array.to_list t.replicas
    |> List.map (fun r ->
           Net.Bandwidth.category_total
             (Net.Network.stats t.network (Replica.id r))
             Net.Bandwidth.Sent "viewchange")
    |> List.fold_left ( + ) 0
  in
  let vc_trigger_to_entry =
    match (t.first_vc_trigger, t.last_view_entry) with
    | Some a, Some b when Sim_time.compare b a > 0 -> Some (Sim_time.to_sec Sim_time.(b - a))
    | _ -> None
  in
  let final_view =
    List.fold_left (fun acc id -> max acc (Replica.view t.replicas.(id))) 1 (honest_ids t)
  in
  let equivocations =
    List.fold_left
      (fun acc id -> acc + List.length (Datablock_pool.equivocations (Replica.pool t.replicas.(id))))
      0 (honest_ids t)
  in
  let all_confirmed =
    List.for_all Workload.Request.is_confirmed (Workload.Generator.batches t.gen)
  in
  { n = cfg.Config.n;
    offered = Workload.Generator.offered t.gen;
    confirmed = Workload.Tally.confirmed t.tally;
    throughput;
    goodput_bps;
    latency = Workload.Tally.latency t.tally;
    stage_seconds = Array.to_list (Array.mapi (fun i name -> (name, t.stage_acc.(i))) stage_names);
    leader = leader_view;
    non_leader = bandwidth_view t non_leader;
    leader_bps =
      (if window_sec <= 0. then 0.
       else 8. *. float_of_int (leader_view.sent_bytes + leader_view.received_bytes) /. window_sec);
    window_sec;
    executed_blocks = Workload.Tally.serials t.tally;
    view_changes = t.view_changes;
    final_view;
    vc_trigger_to_entry;
    vc_bytes;
    equivocations_detected = equivocations;
    all_confirmed;
    safety_ok = check_safety t }

let shutdown t = Option.iter Exec.Pool.shutdown t.verify_pool

let run sp =
  let t = create sp in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      run_until t sp.duration;
      report t)
