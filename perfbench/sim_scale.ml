(* The simulator workload: a Leopard cluster on [Core.Runner], driven in
   one-simulated-second [run_until] slices so the benchmark can time the
   warm-up, loaded and drain phases from outside. *)

type params = {
  n : int;
  alpha : int;
  bft_size : int;
  load : float;          (* offered requests per simulated second *)
  warmup_s : int;        (* simulated seconds before the rate window opens *)
  load_until_s : int;    (* offered load stops here *)
  duration_s : int;      (* simulated window; load_until_s..duration_s drains *)
  setups : int;          (* Runner.create repetitions timed for setup_s *)
}

(* Fig 9's regime: Table 2 sizes at n=256, f=85 silent Byzantine
   replicas, 1.5x10^5 req/s for 24 of 30 simulated seconds so every
   request can confirm before the window closes. *)
let paper = {
  n = 256;
  alpha = 4000;
  bft_size = 300;
  load = 150_000.;
  warmup_s = 5;
  load_until_s = 24;
  duration_s = 30;
  setups = 9;
}

let spec p ~seed =
  (* 0.5 s partial-pack and proposal timers: the [leopard_cli run]
     defaults. *)
  let cfg =
    Core.Config.make ~n:p.n ~alpha:p.alpha ~bft_size:p.bft_size
      ~datablock_timeout:(Sim.Sim_time.ms 500) ~proposal_timeout:(Sim.Sim_time.ms 500) ()
  in
  Core.Runner.spec ~cfg ~seed:(Int64.of_int seed) ~load:p.load
    ~duration:(Sim.Sim_time.s p.duration_s) ~warmup:(Sim.Sim_time.s p.warmup_s)
    ~load_until:(Sim.Sim_time.s p.load_until_s) ~byzantine:(Core.Runner.silent_f cfg) ()

let bytes_of (v : Core.Runner.bandwidth_view) = float_of_int (v.sent_bytes + v.received_bytes)

let run ?(spans = Span.create ~enabled:false) p ~seed =
  let sp = spec p ~seed in
  let root = Span.enter spans (Span.name_id spans "run") in
  let create_name = Span.name_id spans "sim.create" in
  (* Only the last cluster is run; the earlier ones just time set-up and
     are garbage before the next one is built. *)
  let create () =
    let t0 = Unix.gettimeofday () in
    let r = Span.with_span spans create_name (fun () -> Core.Runner.create sp) in
    (r, Unix.gettimeofday () -. t0)
  in
  let setup_times = Array.make p.setups 0. in
  for i = 0 to p.setups - 2 do
    setup_times.(i) <- snd (create ())
  done;
  let r, last = create () in
  setup_times.(p.setups - 1) <- last;
  let engine = Core.Runner.engine r in
  let slice_names =
    [| Span.name_id spans "sim.slice_warmup";
       Span.name_id spans "sim.slice_loaded";
       Span.name_id spans "sim.slice_drain" |]
  in
  (* Latency by the f+1 rule from outside, polled every simulated
     100 µs: read-only events, so the protocol run is unchanged. They
     are subtracted from sim.events; their CPU stays in cpu_us_per_req. *)
  let replicas = Core.Runner.replicas r in
  let tracker = F1.create sp.cfg replicas in
  let seen = Hashtbl.create 65536 in
  let latencies = ref [] and confirmed_out = ref 0 and polls = ref 0 in
  let end_ns = Sim.Sim_time.s p.duration_s in
  let rec poll () =
    incr polls;
    let now = Sim.Engine.now engine in
    F1.poll tracker replicas (fun (b : Workload.Request.t) ->
        if not (Hashtbl.mem seen b.id) then begin
          Hashtbl.add seen b.id ();
          confirmed_out := !confirmed_out + b.count;
          latencies := Sim.Sim_time.to_sec Sim.Sim_time.(now - b.born) *. 1e3 :: !latencies
        end);
    if Int64.compare now end_ns < 0 then
      ignore (Sim.Engine.schedule engine ~delay:(Sim.Sim_time.us 100) poll : Sim.Engine.handle)
  in
  ignore (Sim.Engine.schedule engine ~delay:(Sim.Sim_time.us 100) poll : Sim.Engine.handle);
  let slice_wall = Array.make p.duration_s 0. in
  let mempool_max = ref 0 in
  let load_report = ref None in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Outcome.cpu_s () and wall0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Core.Runner.shutdown r)
    (fun () ->
      for sec = 1 to p.duration_s do
        let phase = if sec <= p.warmup_s then 0 else if sec <= p.load_until_s then 1 else 2 in
        let t0 = Unix.gettimeofday () in
        Span.with_span spans slice_names.(phase) (fun () ->
            Core.Runner.run_until r (Sim.Sim_time.s sec));
        slice_wall.(sec - 1) <- Unix.gettimeofday () -. t0;
        Array.iter
          (fun rep -> mempool_max := max !mempool_max (Core.Replica.mempool_pending rep))
          (Core.Runner.replicas r);
        (* Throughput is read when the load stops: confirmed req/s over
           the loaded part of the rate window. *)
        if sec = p.load_until_s then load_report := Some (Core.Runner.report r)
      done;
      let wall = Unix.gettimeofday () -. wall0 and cpu = Outcome.cpu_s () -. cpu0 in
      let gc1 = Gc.quick_stat () in
      let rep = Span.with_span spans (Span.name_id spans "sim.report") (fun () -> Core.Runner.report r) in
      Span.leave spans root;
      let load_rep = Option.get !load_report in
      let confirmed = float_of_int rep.confirmed in
      let events = float_of_int (Sim.Engine.events_fired engine - !polls) in
      let latencies = Array.of_list !latencies in
      let window_confirmed = rep.throughput *. rep.window_sec in
      let honest = Core.Runner.honest_ids r in
      let datablocks =
        List.fold_left (fun acc id -> acc + Core.Replica.datablocks_created replicas.(id)) 0 honest
      in
      let checkpoints =
        List.fold_left (fun acc id -> max acc (Core.Replica.low_watermark replicas.(id))) 0 honest
        / sp.cfg.Core.Config.checkpoint_interval
      in
      let slices a b = Array.sub slice_wall a (b - a) |> Array.fold_left ( +. ) 0. in
      let warm_wall = slices 0 p.warmup_s and steady_wall = slices p.warmup_s p.load_until_s in
      let lat = Outcome.quantile latencies in
      let end_to_end =
        [ ("setup_s", Outcome.median setup_times, "s");
          ("throughput_rps", load_rep.throughput, "req/s");
          ("latency_p50_ms", lat 0.50, "ms");
          ("latency_p99_ms", lat 0.99, "ms");
          ("cpu_us_per_req", Outcome.ratio (cpu *. 1e6) confirmed, "us");
          ("confirmed_ratio", Outcome.ratio confirmed (float_of_int rep.offered), "ratio");
          ("peak_heap_mb", Outcome.top_heap_mb (), "MB") ]
      in
      let per_layer =
        [ ("client.offered_rps", p.load, "req/s");
          ("client.latency_samples", float_of_int (Array.length latencies), "count");
          ("core.reqs_per_datablock", Outcome.ratio confirmed (float_of_int datablocks), "req");
          ( "core.reqs_per_bftblock",
            Outcome.ratio confirmed (float_of_int rep.executed_blocks),
            "req" );
          ("core.mempool_pending_max", float_of_int !mempool_max, "req");
          ("core.executed_blocks", float_of_int rep.executed_blocks, "count");
          ("core.checkpoints", float_of_int checkpoints, "count");
          ("core.view_changes", float_of_int rep.view_changes, "count");
          ("sim.events", events, "count");
          ("sim.wall_s", wall, "s");
          ("sim.events_per_wall_s", Outcome.ratio events wall, "1/s");
          ("sim.wall_per_sim_s_warmup", warm_wall /. float_of_int p.warmup_s, "s/s");
          ( "sim.wall_per_sim_s_steady",
            steady_wall /. float_of_int (p.load_until_s - p.warmup_s),
            "s/s" );
          ( "net.msgs_per_req",
            Outcome.ratio
              (float_of_int (Net.Network.delivered_messages (Core.Runner.network r)))
              confirmed,
            "msg" );
          ("net.leader_bytes_per_req", Outcome.ratio (bytes_of rep.leader) window_confirmed, "B");
          ( "net.nonleader_bytes_per_req",
            Outcome.ratio (bytes_of rep.non_leader) window_confirmed,
            "B" );
          ( "gc.minor_words_per_event",
            Outcome.ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) events,
            "words" );
          ( "gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
            "count" );
          ("process.cpu_util", Outcome.ratio cpu wall, "ratio") ]
      in
      let checks =
        [ ("safety_ok", rep.safety_ok);
          ("all_confirmed", rep.all_confirmed && rep.confirmed = rep.offered);
          ( "outside_count_matches_runner",
            !confirmed_out = rep.confirmed && tracker.F1.missing = 0
            && Array.length latencies = Stats.Histogram.count rep.latency );
          ("no_view_change", rep.view_changes = 0) ]
      in
      ( Outcome.make ~checks ~attempted:rep.offered
          ~failed:(rep.offered - rep.confirmed) end_to_end,
        per_layer ))
