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
  driver : Driver.t;
  (* Table-3 stage accumulators (request-weighted seconds), indexed by
     [stage_*] below. A float array keeps the per-confirmed-batch hot path
     free of boxed-float stores and string lookups; the report
     materializes the named list. *)
  stage_acc : float array;
  (* One pool shared by every simulated replica when [spec.verify_domains]
     asks for one: workers only evaluate pure crypto, so sharing changes
     nothing observable and keeps domain count independent of n. *)
  verify_pool : Exec.Pool.t option;
}

let engine t = t.engine
let network t = t.network
let driver t = t.driver
let replicas t = Driver.replicas t.driver
let trace t = Driver.trace t.driver
let honest_ids t = Driver.honest_ids t.driver

let stage_generation = 0
and stage_delivery = 1
and stage_agreement = 2
and stage_response = 3

let stage_names =
  [| "Datablock Generation"; "Datablock Delivery"; "Agreement"; "Response to Client" |]

(* The stage breakdown of one confirmed batch: generation until its
   datablock was packed, delivery until the serial was proposed,
   agreement until f+1 executions, and one link delay back. *)
let record_stages acc (link : Net.Network.link) ~at ~proposed (db : Datablock.t)
    (b : Workload.Request.t) =
  let w = float_of_int b.Workload.Request.count in
  let gen_span = Sim_time.to_sec Sim_time.(db.Datablock.created_at - b.Workload.Request.born) in
  acc.(stage_generation) <- acc.(stage_generation) +. (w *. Float.max 0. gen_span);
  (match proposed with
   | Some p ->
     acc.(stage_delivery) <-
       acc.(stage_delivery)
       +. (w *. Float.max 0. (Sim_time.to_sec Sim_time.(p - db.Datablock.created_at)));
     acc.(stage_agreement) <-
       acc.(stage_agreement) +. (w *. Float.max 0. (Sim_time.to_sec Sim_time.(at - p)))
   | None -> ());
  acc.(stage_response) <- acc.(stage_response) +. (w *. Sim_time.to_sec link.Net.Network.prop_delay)

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
  let verify_pool =
    match sp.verify_domains with
    | Some d when d > 0 -> Some (Exec.Pool.create ?obs:sp.obs ~domains:d ())
    | _ -> None
  in
  let plane =
    { Driver.now = (fun () -> Engine.now engine);
      schedule = (fun ~delay f -> ignore (Engine.schedule engine ~delay f : Engine.handle));
      (* a fresh CPU model per incarnation, on the replica's network slot *)
      platform =
        (fun id ->
          Platform.of_sim ?verify_pool
            ?store:(Option.map (fun stores -> stores.(id)) sp.stores)
            ~engine ~network ~id ~cores:cfg.Config.cores ());
      ingress =
        (fun ~dst ~size k -> Net.Network.inject network ~dst ~size ~category:"client-req" k);
      set_down = Net.Network.set_down network;
      is_down = Net.Network.is_down network }
  in
  let stage_acc = Array.make (Array.length stage_names) 0. in
  let driver =
    Driver.create plane
      { Driver.cfg;
        key_rng;
        byzantine = sp.byzantine;
        load = sp.load;
        (* Coarser client batching at large scale keeps the event volume
           of the open-loop client proportional to the offered load
           rather than to n. *)
        tick = (if cfg.Config.n >= 128 then Sim_time.ms 100 else Sim_time.ms 20);
        load_until = Some (Option.value sp.load_until ~default:sp.duration);
        resend = sp.client_resend_timeout;
        horizon = Some sp.duration;
        trace = Trace.create ~enabled:sp.trace ~capacity:1_000_000 ();
        obs = sp.obs;
        on_confirm = record_stages stage_acc sp.link }
  in
  (* Bandwidth accounting restarts when the warmup window closes. *)
  ignore (Engine.schedule_at engine ~at:sp.warmup (fun () -> Net.Network.reset_stats network));
  (match sp.stop_leader_at with
   | Some at ->
     let leader = Config.leader_of_view cfg 1 in
     ignore
       (Engine.schedule_at engine ~at (fun () ->
            Net.Network.set_down network leader true;
            Trace.recordf (Driver.trace driver) ~at ~tag:"leader.stopped" "%a" Net.Node_id.pp
              leader))
   | None -> ());
  Driver.start_load driver;
  { sp; engine; network; driver; stage_acc; verify_pool }

let run_until t at = Engine.run ~until:at t.engine

(* Process restart mid-run: the replacement is rebuilt from the durable
   store the spec attached (with none attached it restarts from genesis,
   which a safety check would catch). *)
let restart_replica t id = Driver.restart_replica t.driver id

let bandwidth_view t id =
  let acct = Net.Network.stats t.network id in
  { sent_bytes = Net.Bandwidth.total acct Net.Bandwidth.Sent;
    received_bytes = Net.Bandwidth.total acct Net.Bandwidth.Received;
    sent_by_category = Net.Bandwidth.by_category acct Net.Bandwidth.Sent;
    received_by_category = Net.Bandwidth.by_category acct Net.Bandwidth.Received }

let report t =
  let cfg = t.sp.cfg in
  let d = t.driver in
  let tally = Driver.tally d in
  let now = Engine.now t.engine in
  let from_ = t.sp.warmup and until = now in
  let window_sec = Sim_time.to_sec Sim_time.(until - from_) in
  let leader = Config.leader_of_view cfg 1 in
  let non_leader = List.find (fun id -> not (Net.Node_id.equal id leader)) (honest_ids t) in
  let leader_view = bandwidth_view t leader in
  let vc_bytes =
    List.init cfg.Config.n (fun id ->
        Net.Bandwidth.category_total (Net.Network.stats t.network id) Net.Bandwidth.Sent
          "viewchange")
    |> List.fold_left ( + ) 0
  in
  { n = cfg.Config.n;
    offered = Driver.offered d;
    confirmed = Driver.confirmed d;
    throughput = Workload.Tally.throughput tally ~from_ ~until;
    goodput_bps = Workload.Tally.goodput_bps tally ~from_ ~until;
    latency = Workload.Tally.latency tally;
    stage_seconds = Array.to_list (Array.mapi (fun i name -> (name, t.stage_acc.(i))) stage_names);
    leader = leader_view;
    non_leader = bandwidth_view t non_leader;
    leader_bps =
      (if window_sec <= 0. then 0.
       else 8. *. float_of_int (leader_view.sent_bytes + leader_view.received_bytes) /. window_sec);
    window_sec;
    executed_blocks = Workload.Tally.serials tally;
    view_changes = Driver.view_changes d;
    final_view = Driver.max_view d;
    vc_trigger_to_entry = Driver.vc_trigger_to_entry d;
    vc_bytes;
    equivocations_detected = Driver.equivocations d;
    all_confirmed = Driver.all_confirmed d;
    safety_ok = Driver.safety_ok d }

let shutdown t = Option.iter Exec.Pool.shutdown t.verify_pool

let run sp =
  let t = create sp in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      run_until t sp.duration;
      report t)
