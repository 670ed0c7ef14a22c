open Sim

type plane =
  | Sim
  | Tcp of { data_root : string option; metrics_out : string option }

(* What a plane contributes to a chaos run. *)
type host = {
  driver : Core.Driver.t;
  rng : Rng.t;  (* the injector's *)
  install : Injector.t -> unit;  (* the injector's verdict on every wire *)
  advance : until:Sim_time.t -> stop:(unit -> bool) -> unit;
      (* run the plane's clock to [until], or until [stop] holds where the
         plane allows an early end *)
  drain : Sim_time.span;  (* load off, wait this long at most to converge *)
  close : ok:bool -> unit;
}

let cfg_of plane (sc : Scenario.t) =
  (* The sim plane's timers are scaled to its free-cost crypto and
     simulated links; TCP's to real loopback round trips. *)
  let db, prop, view =
    match plane with
    | Sim -> (Sim_time.ms 200, Sim_time.ms 300, Sim_time.s 1)
    | Tcp _ -> (Sim_time.ms 20, Sim_time.ms 30, Sim_time.ms 1500)
  in
  Core.Config.make ~n:sc.Scenario.n ~alpha:10 ~bft_size:2 ~k:16
    ?checkpoint_interval:sc.Scenario.checkpoint_interval ~payload:64 ~datablock_timeout:db
    ~proposal_timeout:prop ~view_timeout:view ~fetch_grace:(Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free ~leader_generates_datablocks:sc.Scenario.leader_generates
    ?mempool_cap:sc.Scenario.mempool_cap ()

let default_load plane n =
  match plane with
  | Sim -> if n >= 64 then 1200. else if n >= 16 then 800. else 400.
  | Tcp _ -> 800.

let torn_tail (sc : Scenario.t) id sink =
  match List.assoc_opt id sc.Scenario.torn_tail with
  | None -> sink
  | Some drop -> Core.Store.with_torn_tail ~drop sink

let sim_host ~seed ~load ~cfg (sc : Scenario.t) =
  let n = sc.Scenario.n in
  let heal = Scenario.last_event_at sc in
  (* Durable stores only when the scenario needs them (a [Restart] event
     or a torn-tail fault): [None] keeps the hot path — and thus every
     other scenario's trace — identical to the null sink. *)
  let needs_store =
    sc.Scenario.torn_tail <> []
    || List.exists
         (fun (e : Scenario.event) ->
           match e.Scenario.action with Scenario.Restart _ -> true | _ -> false)
         sc.Scenario.events
  in
  let stores =
    if needs_store then Some (Array.init n (fun id -> torn_tail sc id (Core.Store.mem ())))
    else None
  in
  let spec =
    Core.Runner.spec ~cfg ~seed ~load ~duration:(Scenario.duration sc) ~warmup:(Sim_time.s 1)
      ~load_until:Sim_time.(heal + Int64.div sc.Scenario.settle 2L)
      ~byzantine:sc.Scenario.byzantine ~client_resend_timeout:(Sim_time.s 1) ?stores
      ~trace:true ()
  in
  let t = Core.Runner.create spec in
  let network = Core.Runner.network t in
  let rng = Rng.split (Engine.rng (Core.Runner.engine t)) in
  { driver = Core.Runner.driver t;
    rng;
    install =
      (fun inj ->
        Net.Network.set_fault_hook network (fun ~now:_ ~src ~dst msg ->
            match Injector.decide inj ~src ~dst msg with
            | Injector.Pass -> Net.Network.Pass
            | Injector.Drop -> Net.Network.Drop
            | Injector.Delay d -> Net.Network.Divert { delay_ns = Int64.to_int d; copies = 1 }
            | Injector.Duplicate -> Net.Network.Divert { delay_ns = 0; copies = 2 }));
    (* The simulator always runs the full span: its outcome must not
       depend on when a predicate happens to be polled. *)
    advance = (fun ~until ~stop:_ -> Core.Runner.run_until t until);
    drain = 0L;
    close = (fun ~ok:_ -> Core.Runner.shutdown t) }

let tcp_host ~seed ~load ~cfg ~data_root ~metrics_out (sc : Scenario.t) =
  let data_dir = Option.map (fun root -> Filename.concat root sc.Scenario.name) data_root in
  let store_wrap = if sc.Scenario.torn_tail = [] then None else Some (torn_tail sc) in
  let cl =
    Transport.Cluster.create ~cfg ~load ~trace:(Trace.create ~enabled:true ())
      ~byzantine:sc.Scenario.byzantine ~client_resend:(Sim_time.ms 500) ?data_dir ?store_wrap
      ?metrics_out ()
  in
  let loop = Transport.Cluster.loop cl in
  { driver = Transport.Cluster.driver cl;
    rng = Rng.create seed;
    install =
      (fun inj ->
        for src = 0 to sc.Scenario.n - 1 do
          Transport.Cluster.set_fault_filter cl src
            (Some
               (fun ~dst msg ->
                 match Injector.decide inj ~src ~dst msg with
                 | Injector.Pass -> Transport.Conn.Pass
                 | Injector.Drop -> Transport.Conn.Fault_drop
                 | Injector.Delay d -> Transport.Conn.Fault_delay d
                 | Injector.Duplicate -> Transport.Conn.Fault_duplicate))
        done);
    advance =
      (fun ~until ~stop ->
        Transport.Cluster.run_while cl (fun _ ->
            Sim_time.compare (Transport.Loop.now loop) until < 0 && not (stop ())));
    drain = Sim_time.s 5;
    close =
      (fun ~ok ->
        Transport.Cluster.close cl;
        (* a failing run keeps its WAL directories as artifacts *)
        match data_dir with Some dir when ok -> Store.Store_file.remove_dir dir | _ -> ()) }

let run ?(seed = 42L) ?load plane (sc : Scenario.t) =
  let t0 = Unix.gettimeofday () in
  let cfg = cfg_of plane sc in
  let load =
    match (load, sc.Scenario.load) with
    | Some l, _ | None, Some l -> l
    | None, None -> default_load plane sc.Scenario.n
  in
  let host =
    match plane with
    | Sim -> sim_host ~seed ~load ~cfg sc
    | Tcp { data_root; metrics_out } -> tcp_host ~seed ~load ~cfg ~data_root ~metrics_out sc
  in
  let d = host.driver in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () -> host.close ~ok:!ok)
    (fun () ->
      let p = Core.Driver.plane d in
      let trace = Core.Driver.trace d in
      let inj = Injector.create ~n:sc.Scenario.n ~rng:host.rng in
      host.install inj;
      List.iter
        (fun (e : Scenario.event) ->
          p.Core.Driver.schedule ~delay:e.Scenario.at (fun () ->
              Trace.recordf trace ~at:(p.Core.Driver.now ()) ~tag:"chaos" "%a" Scenario.pp_action
                e.Scenario.action;
              match e.Scenario.action with
              | Scenario.Crash id -> p.Core.Driver.set_down id true
              | Scenario.Revive id -> p.Core.Driver.set_down id false
              | Scenario.Restart id -> Core.Driver.restart_replica d id
              | link_fault -> ignore (Injector.apply inj link_fault : bool)))
        sc.Scenario.events;
      Core.Driver.start_load d;
      let origin = p.Core.Driver.now () in
      let heal = Sim_time.(origin + Scenario.last_event_at sc) in
      host.advance ~until:heal ~stop:(fun () -> false);
      let confirmed_at_heal = Core.Driver.confirmed d in
      let k = cfg.Core.Config.k in
      let state_sync id =
        let r = (Core.Driver.replicas d).(id) in
        let exec = Core.Ledger.executed_up_to (Core.Replica.ledger r) in
        exec > 0 && exec + k >= Core.Driver.frontier d
      in
      let expect = sc.Scenario.expect in
      (* Progress must be measured after heal, not at it: a scenario with
         no events heals at its first instant. *)
      let obligations_met () =
        Sim_time.compare (p.Core.Driver.now ()) Sim_time.(heal + s 1) >= 0
        && Core.Driver.confirmed d > confirmed_at_heal + 100
        && ((not expect.Scenario.view_change) || Core.Driver.max_view d >= 2)
        && ((not expect.Scenario.equivocation) || Core.Driver.equivocations d > 0)
        && Option.fold ~none:true ~some:state_sync expect.Scenario.state_sync
      in
      host.advance ~until:Sim_time.(origin + Scenario.duration sc) ~stop:obligations_met;
      if host.drain > 0L then begin
        Core.Driver.stop_load d;
        host.advance
          ~until:Sim_time.(p.Core.Driver.now () + host.drain)
          ~stop:(fun () -> Core.Driver.converged d)
      end;
      let verdict =
        Oracle.evaluate ~scenario:sc ~safety:(Core.Driver.safety_ok d) ~confirmed_at_heal
          ~confirmed:(Core.Driver.confirmed d) ~final_view:(Core.Driver.max_view d)
          ~equivocations:(Core.Driver.equivocations d) ~state_sync
      in
      ok := Oracle.ok verdict;
      { Oracle.scenario = sc;
        plane = (match plane with Sim -> "sim" | Tcp _ -> "tcp");
        seed;
        verdict;
        confirmed_at_heal;
        confirmed = Core.Driver.confirmed d;
        final_view = Core.Driver.max_view d;
        view_changes = Core.Driver.view_changes d;
        equivocations = Core.Driver.equivocations d;
        wall_sec = Unix.gettimeofday () -. t0;
        trace = Oracle.render_trace trace })
