open Sim

type spec = {
  cfg : Hs_config.t;
  link : Net.Network.link;
  seed : int64;
  load : float;
  duration : Sim_time.span;
  warmup : Sim_time.span;
  silent : int;
}

let spec ~cfg ?(link = Net.Network.default_link) ?(seed = 42L) ?(load = 1e5)
    ?(duration = Sim_time.s 20) ?(warmup = Sim_time.s 5) ?silent () =
  { cfg;
    link;
    seed;
    load;
    duration;
    warmup;
    silent = Option.value silent ~default:cfg.Hs_config.f }

type report = {
  n : int;
  offered : int;
  confirmed : int;
  throughput : float;
  goodput_bps : float;
  latency : Stats.Histogram.t;
  leader_sent_bytes : int;
  leader_received_bytes : int;
  leader_bps : float;
  window_sec : float;
  committed_heights : int;
  safety_ok : bool;
}

let run sp =
  let cfg = sp.cfg in
  let n = cfg.Hs_config.n in
  let engine = Engine.create ~seed:sp.seed () in
  let network = Net.Network.create engine ~n ~meta:Hs_types.meta ~link:sp.link in
  let key_rng = Rng.split (Engine.rng engine) in
  let tsetup, tkeys =
    Crypto.Threshold.keygen key_rng ~threshold:(2 * cfg.Hs_config.f) ~parties:n
  in
  let leader = 0 in
  (* Silent replicas picked from the back so the leader stays honest. *)
  let silent_set = List.init sp.silent (fun i -> n - 1 - i) in
  let tally = Workload.Tally.create ~f_plus_1:(cfg.Hs_config.f + 1) () in
  let hooks =
    { Hs_replica.on_commit =
        (fun ~id:_ ~height block ->
          if Workload.Tally.executed tally ~sn:height then begin
            let at = Engine.now engine in
            List.iter
              (fun b -> ignore (Workload.Tally.confirm tally ~at b : bool))
              block.Hs_types.batch
          end)
    }
  in
  let replicas =
    Array.init n (fun id ->
        Hs_replica.create ~engine ~network ~cfg ~id ~leader ~tsetup ~tkey:tkeys.(id)
          ~silent:(List.mem id silent_set) ~hooks ())
  in
  Array.iter Hs_replica.start replicas;
  let gen =
    (* Clients submit in small wire batches (~32 requests), so the
       leader's block batching — not client granularity — sets the block
       size (libhotstuff clients send individual commands). *)
    let tick =
      if sp.load <= 0. then Sim_time.ms 20
      else Sim_time.max (Sim_time.us 100) (Sim_time.min (Sim_time.ms 20) (Sim_time.of_sec (32. /. sp.load)))
    in
    Workload.Generator.start (Workload.Generator.engine_clock engine)
      ~rate:sp.load ~payload:cfg.Hs_config.payload
      ~targets:[ leader ] ~tick
      ~inject:(fun ~dst ~size cb -> Net.Network.inject network ~dst ~size ~category:"client-req" cb)
      ~submit:(fun ~target b -> Hs_replica.submit replicas.(target) b)
      ~until:sp.duration ()
  in
  ignore (Engine.schedule_at engine ~at:sp.warmup (fun () -> Net.Network.reset_stats network));
  Engine.run ~until:sp.duration engine;
  let window_sec = Sim_time.to_sec Sim_time.(sp.duration - sp.warmup) in
  let acct = Net.Network.stats network leader in
  let sent = Net.Bandwidth.total acct Net.Bandwidth.Sent in
  let received = Net.Bandwidth.total acct Net.Bandwidth.Received in
  let safety_ok =
    (* Position-wise equality of committed chains across honest replicas. *)
    let honest = List.filter (fun i -> not (List.mem i silent_set)) (List.init n Fun.id) in
    match honest with
    | [] -> true
    | first :: rest ->
      List.for_all
        (fun other ->
          let upto =
            min
              (Hs_replica.committed_up_to replicas.(first))
              (Hs_replica.committed_up_to replicas.(other))
          in
          let rec go h =
            if h > upto then true
            else
              match
                ( Hs_replica.committed_block replicas.(first) h,
                  Hs_replica.committed_block replicas.(other) h )
              with
              | Some a, Some b ->
                Crypto.Hash.equal (Hs_types.block_hash a) (Hs_types.block_hash b) && go (h + 1)
              | _ -> go (h + 1)
          in
          go 1)
        rest
  in
  { n;
    offered = Workload.Generator.offered gen;
    confirmed = Workload.Tally.confirmed tally;
    throughput = Workload.Tally.throughput tally ~from_:sp.warmup ~until:sp.duration;
    goodput_bps = Workload.Tally.goodput_bps tally ~from_:sp.warmup ~until:sp.duration;
    latency = Workload.Tally.latency tally;
    leader_sent_bytes = sent;
    leader_received_bytes = received;
    leader_bps =
      (if window_sec <= 0. then 0. else 8. *. float_of_int (sent + received) /. window_sec);
    window_sec;
    committed_heights = Workload.Tally.serials tally;
    safety_ok }
