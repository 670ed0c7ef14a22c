(* An unconfirmed client batch eligible for re-sending. *)
type pending_req = {
  batch : Workload.Request.t;
  mutable last_sent_ns : int;
}

type t = {
  loop : Loop.t;
  cfg : Core.Config.t;
  nodes : Runtime.node array;
  replicas : Core.Replica.t array;
  trace : Sim.Trace.t;
  tally : Workload.Tally.t; (* f+1 confirmation accounting *)
  (* open-loop client *)
  load : float;
  mutable load_active : bool;
  mutable offered : int;
  mutable next_batch_id : int;
  mutable carry : float; (* fractional requests owed from past ticks *)
  mutable last_tick_ns : int;
  mutable rr : int;
  (* closed-loop arm of the hybrid client (inert while the overload
     controls are off, i.e. [mempool_cap = 0] and [pace_on_pressure =
     false]): admission rejections re-credit [carry] and put the target
     on a retry-after cooldown; saturated targets are skipped. *)
  mutable rejected : int;  (* requests refused at replica admission *)
  mutable throttled : int; (* target-ticks skipped for egress pressure *)
  retry_after : int array; (* per-target: earliest ns to submit again *)
  mutable load_started_ns : int;
  mutable load_stopped_ns : int;
  (* client re-sends (needed to arm the replica watchdog: only
     resend-tagged batches are watched for view-change triggering) *)
  client_resend : Sim.Sim_time.span option;
  pending : (int, pending_req) Hashtbl.t;
  mutable resends : int;
  (* view-change observability *)
  mutable view_changes : int;
  mutable vc_triggers : int;
  (* verification pool (None = inline verification on the loop thread) *)
  verify_pool : Exec.Pool.t option;
  mutable verify_tick : Loop.tick_handle option;
  (* durable state: one WAL directory per node under [data_dir]. The
     cells hold the live file handles — [restart_replica] crashes the old
     handle and installs a fresh one, and the sinks threaded into the
     node platforms dereference the cell on every call, so a recovered
     replica writes to the new handle through the same platform value. *)
  stores : Store.Store_file.t ref array;
  data_dir : string;
  keep_data : bool;
  fsync : Store.Wal.fsync_policy;
  mutable store_tick : Loop.tick_handle option;
  (* retained for [restart_replica] *)
  keys : (Crypto.Signature.public_key * Crypto.Signature.private_key) array;
  tsetup : Crypto.Threshold.setup;
  tkeys : Crypto.Threshold.member_key array;
  strategies : Core.Byzantine.t array;
  hooks : Core.Replica.hooks;
  mutable closed : bool;
  (* observability: registry shared by every layer of this cluster (the
     tally's confirm instruments included), and the periodic file dump *)
  obs : Obs.Registry.t option;
  metrics_out : string option;
  metrics_interval_ns : int;
  mutable last_dump_ns : int;
  mutable metrics_tick : Loop.tick_handle option;
}

let loop t = t.loop
let replicas t = t.replicas
let nodes t = t.nodes
let offered t = t.offered
let confirmed t = Workload.Tally.confirmed t.tally
let trace t = t.trace
let view_changes t = t.view_changes
let vc_triggers t = t.vc_triggers
let resends t = t.resends
let rejected t = t.rejected
let throttled t = t.throttled
let verify_stats t = Option.map Exec.Pool.stats t.verify_pool

(* A confirmed batch is no longer the client's to re-send. *)
let on_f1_execution t (dbs : Core.Datablock.t list) =
  let at = Loop.now t.loop in
  List.iter
    (fun (db : Core.Datablock.t) ->
      List.iter
        (fun (b : Workload.Request.t) ->
          if Workload.Tally.confirm t.tally ~at b then
            Hashtbl.remove t.pending b.Workload.Request.id)
        db.Core.Datablock.batches)
    dbs

let make_hooks t_ref =
  { Core.Replica.on_execute =
      (fun ~id:_ ~sn _block dbs ->
        match !t_ref with
        | None -> ()
        | Some t -> if Workload.Tally.executed t.tally ~sn then on_f1_execution t dbs);
    on_view_change =
      (fun ~id:_ ~view:_ ->
        match !t_ref with None -> () | Some t -> t.view_changes <- t.view_changes + 1);
    on_view_change_trigger =
      (fun ~id:_ ~abandoned:_ ->
        match !t_ref with None -> () | Some t -> t.vc_triggers <- t.vc_triggers + 1);
    on_propose = (fun ~id:_ ~sn:_ ~at:_ -> ());
    on_checkpoint =
      (fun ~id:_ ~lw ->
        match !t_ref with None -> () | Some t -> Workload.Tally.prune_below t.tally lw) }

(* -- client ------------------------------------------------------------- *)

let client_tick_ns = 10_000_000 (* 10 ms *)

(* Hybrid-client tuning: a rejected target sits out [retry_after_ns];
   re-credited requests bank at most [carry_bucket_sec] seconds of load
   (token-bucket depth), so a long rejection streak cannot store an
   unbounded burst to release at once. *)
let retry_after_ns = 100_000_000 (* 100 ms *)
let carry_bucket_sec = 0.5

(* The closed-loop behaviours only engage when the replicas are actually
   configured with overload controls; otherwise the client stays the
   seed's pure open loop. *)
let overload_controls_on t =
  t.cfg.Core.Config.mempool_cap > 0 || t.cfg.Core.Config.pace_on_pressure

let leader t = Core.Config.leader_of_view t.cfg 1

let client_targets t =
  let l = leader t in
  (* The leader is skipped to keep its NIC free for proposals — unless
     the leader-generates ablation is on, in which case it packs
     datablocks like everyone else and needs requests to pack. *)
  let skip_leader = not t.cfg.Core.Config.leader_generates_datablocks in
  let acc = ref [] in
  for id = t.cfg.Core.Config.n - 1 downto 0 do
    if ((not skip_leader) || not (Net.Node_id.equal id l))
       && not (Conn.is_down (Runtime.conn t.nodes.(id)))
    then acc := id :: !acc
  done;
  !acc

let offer_batch t ~target ~count =
  let b =
    Workload.Request.make ~id:t.next_batch_id ~count
      ~size_each:t.cfg.Core.Config.payload ~born:(Loop.now t.loop) ()
  in
  t.next_batch_id <- t.next_batch_id + 1;
  match Core.Replica.submit t.replicas.(target) b with
  | Core.Replica.Admitted ->
    t.offered <- t.offered + count;
    if t.client_resend <> None then
      Hashtbl.replace t.pending b.Workload.Request.id
        { batch = b; last_sent_ns = Loop.now_ns t.loop }
  | Core.Replica.Rejected _ ->
    (* Closed-loop: the requests were never accepted, so they go back
       into [carry] (bounded to the token-bucket depth) to be re-offered
       on a later tick, and the target sits out a retry-after window. *)
    t.rejected <- t.rejected + count;
    t.carry <- Float.min (t.carry +. float_of_int count) (t.load *. carry_bucket_sec);
    t.retry_after.(target) <- Loop.now_ns t.loop + retry_after_ns

(* Re-send unconfirmed batches, round-robin over the up replicas. The
   copies carry the resend tag, so receivers watch them and vote to
   change the view if they stay unconfirmed for a full view timeout —
   without this no TCP-plane fault can ever trigger a view change. *)
let resend_tick t =
  match t.client_resend with
  | None -> ()
  | Some period ->
    let period_ns = Int64.to_int period in
    let now_ns = Loop.now_ns t.loop in
    (match client_targets t with
    | [] -> ()
    | targets ->
      let targets = Array.of_list targets in
      let m = Array.length targets in
      (* collect first: a submit must not mutate [pending] mid-iteration *)
      let due = ref [] in
      Hashtbl.iter
        (fun _ p ->
          if now_ns - p.last_sent_ns >= period_ns then begin
            p.last_sent_ns <- now_ns;
            due := p.batch :: !due
          end)
        t.pending;
      List.iter
        (fun batch ->
          t.resends <- t.resends + 1;
          t.rr <- t.rr + 1;
          let copy = Workload.Request.resend_of batch in
          (* A rejected resend copy is not retried early: the original
             stays in [pending] and the next period sends a fresh copy. *)
          ignore
            (Core.Replica.submit t.replicas.(targets.(t.rr mod m)) copy
              : Core.Replica.admission))
        !due)

let rec resend_loop t =
  match t.client_resend with
  | None -> ()
  | Some period ->
    if not t.closed then begin
      resend_tick t;
      ignore
        (Loop.schedule t.loop ~delay:(Int64.div period 2L) (fun () -> resend_loop t)
          : Loop.handle)
    end

(* Targets the hybrid client will actually submit to this tick: up,
   non-leader, past any retry-after cooldown, and (when the overload
   controls are on) under egress-pressure saturation. *)
let eligible_targets t now_ns =
  let controls = overload_controls_on t in
  List.filter
    (fun id ->
      if now_ns < t.retry_after.(id) then false
      else if controls && Conn.pressure (Runtime.conn t.nodes.(id)) >= 1.0 then begin
        t.throttled <- t.throttled + 1;
        false
      end
      else true)
    (client_targets t)

let rec client_tick t =
  if t.load_active then begin
    let now_ns = Loop.now_ns t.loop in
    let dt = float_of_int (now_ns - t.last_tick_ns) *. 1e-9 in
    t.last_tick_ns <- now_ns;
    t.carry <- t.carry +. (t.load *. dt);
    (* With the closed loop engaged the carry is a token bucket, not an
       unbounded debt: requests owed past the bucket depth are shed. *)
    if overload_controls_on t then
      t.carry <- Float.min t.carry (t.load *. carry_bucket_sec);
    let due = int_of_float t.carry in
    t.carry <- t.carry -. float_of_int due;
    (match eligible_targets t now_ns with
    | [] -> () (* everyone down; requests owed stay in [carry]'s past *)
    | targets ->
      let targets = Array.of_list targets in
      let m = Array.length targets in
      let per = due / m and extra = due mod m in
      for i = 0 to m - 1 do
        (* rotate who gets the remainder so the load stays even *)
        let count = per + (if (i + t.rr) mod m < extra then 1 else 0) in
        if count > 0 then offer_batch t ~target:targets.(i) ~count
      done;
      t.rr <- t.rr + 1);
    ignore
      (Loop.schedule t.loop ~delay:(Int64.of_int client_tick_ns) (fun () ->
           client_tick t)
        : Loop.handle)
  end

let start_load t =
  if not t.load_active then begin
    t.load_active <- true;
    t.last_tick_ns <- Loop.now_ns t.loop;
    t.load_started_ns <- t.last_tick_ns;
    t.carry <- 0.;
    client_tick t
  end

let stop_load t =
  if t.load_active then begin
    t.load_active <- false;
    t.load_stopped_ns <- Loop.now_ns t.loop
  end

(* -- construction ------------------------------------------------------- *)

let temp_counter = ref 0

let fresh_data_dir () =
  incr temp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "leopard-data.%d.%d" (Unix.getpid ()) !temp_counter)

let node_dir data_dir id = Filename.concat data_dir (Printf.sprintf "node-%d" id)

(* Every fd the process holds counts against its open-file limit. A
   node holds 2n: a connection each way per peer, its listener and its
   WAL segment. [reserved_fds] covers stdio, the loop's epoll fd, the
   verification pool's pipe and snapshot writes. *)
external nofile_limit : unit -> int = "leopard_nofile_limit"

let reserved_fds = 32
let fds_per_node ~n = 2 * n

let open_file_limit = nofile_limit ()

let max_replicas =
  let fits n = (n * fds_per_node ~n) + reserved_fds <= open_file_limit in
  let rec grow n = if fits (n + 1) then grow (n + 1) else n in
  grow 1

let check_size ~n =
  if n <= max_replicas then Ok ()
  else
    Error
      (Printf.sprintf
         "n=%d needs %d fds, more than the open-file limit (%d) allows: one process hosts at \
          most %d replicas"
         n (n * fds_per_node ~n) open_file_limit max_replicas)

let create ~cfg ?(load = 2000.) ?outbuf_hwm ?(trace = Sim.Trace.create ~enabled:false ())
    ?(byzantine = []) ?client_resend ?verify_domains ?data_dir
    ?(fsync = Store.Wal.Never) ?store_wrap ?obs ?metrics_out
    ?(metrics_interval_ns = 1_000_000_000) () =
  (* A dump target without a registry implies one. *)
  let obs =
    match (obs, metrics_out) with
    | (Some _ as o), _ -> o
    | None, Some _ -> Some (Obs.Registry.create ())
    | None, None -> None
  in
  let n = cfg.Core.Config.n in
  Result.iter_error invalid_arg (check_size ~n);
  let loop = Loop.create () in
  (* An explicit data dir is the caller's (kept at teardown, e.g. as a
     failure artifact); an automatic one is a per-run temp dir removed by
     [close]. *)
  let data_dir, keep_data =
    match data_dir with Some d -> (d, true) | None -> (fresh_data_dir (), false)
  in
  let now_ns () = Loop.now_ns loop in
  let stores =
    Array.init n (fun id ->
        ref (Store.Store_file.create ?obs ~fsync ~now_ns ~dir:(node_dir data_dir id) ()))
  in
  let store_sink id =
    let cell = stores.(id) in
    let base =
      Core.Store.
        { enabled = true;
          log = (fun r -> Store.Store_file.log !cell r);
          save = (fun s -> Store.Store_file.save !cell s);
          load = (fun () -> Store.Store_file.load !cell);
          sync = (fun () -> Store.Store_file.sync !cell) }
    in
    match store_wrap with None -> base | Some w -> w id base
  in
  (* One buffer pool for the whole in-process cluster: a redialing node
     reuses buffers any node released. *)
  let pool = Pool.create () in
  (* Verification pool: ON by default (that is the point of the TCP
     plane — real parallel crypto), sized to leave one core for the
     event loop. [Some 0] disables it (bench baseline); on a small host
     the default degenerates to one worker, still keeping crypto off the
     loop thread. One pool for the in-process cluster: workers only
     run pure crypto, so sharing is safe and bounds the domain count. *)
  let verify_pool =
    match verify_domains with
    | Some 0 -> None
    | Some d -> Some (Exec.Pool.create ?obs ~domains:d ())
    | None ->
      Some
        (Exec.Pool.create ?obs
           ~domains:(max 1 (min 4 (Domain.recommended_domain_count () - 1)))
           ())
  in
  let verify =
    match verify_pool with
    | None -> Core.Verify.inline
    | Some p -> Core.Verify.pooled p
  in
  let nodes =
    Array.init n (fun id ->
        Runtime.node ~loop ~id ~n ?obs ?outbuf_hwm ~pool ~verify ~store:(store_sink id) ())
  in
  let ports = Array.map (fun node -> Runtime.listen node ()) nodes in
  Array.iteri
    (fun id node ->
      for dst = 0 to n - 1 do
        if dst <> id then
          Runtime.set_peer_addr node dst
            (Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(dst)))
      done)
    nodes;
  let key_rng = Sim.Rng.create 42L in
  let keys = Array.init n (fun _ -> Crypto.Signature.keygen key_rng) in
  let pks = Array.map fst keys in
  let tsetup, tkeys =
    Crypto.Threshold.keygen key_rng ~threshold:(2 * cfg.Core.Config.f) ~parties:n
  in
  let t_ref = ref None in
  let hooks = make_hooks t_ref in
  let strategies =
    Array.init n (fun id ->
        Option.value ~default:Core.Byzantine.Honest (List.assoc_opt id byzantine))
  in
  let replicas =
    Array.init n (fun id ->
        Core.Replica.create
          ~platform:(Runtime.platform nodes.(id))
          ~cfg ~id ~sk:(snd keys.(id)) ~pks ~tsetup ~tkey:tkeys.(id) ?obs
          ~strategy:strategies.(id) ~hooks ~trace ())
  in
  let t =
    { loop;
      cfg;
      nodes;
      replicas;
      trace;
      tally = Workload.Tally.create ~f_plus_1:(Core.Config.max_faulty cfg + 1) ?obs ();
      load;
      load_active = false;
      offered = 0;
      next_batch_id = 0;
      carry = 0.;
      last_tick_ns = 0;
      rr = 0;
      rejected = 0;
      throttled = 0;
      retry_after = Array.make n 0;
      load_started_ns = 0;
      load_stopped_ns = 0;
      client_resend;
      pending = Hashtbl.create 1024;
      resends = 0;
      view_changes = 0;
      vc_triggers = 0;
      verify_pool;
      verify_tick = None;
      stores;
      data_dir;
      keep_data;
      fsync;
      store_tick = None;
      keys;
      tsetup;
      tkeys;
      strategies;
      hooks;
      closed = false;
      obs;
      metrics_out;
      metrics_interval_ns;
      last_dump_ns = 0;
      metrics_tick = None }
  in
  t_ref := Some t;
  (* Cluster-level client/consensus aggregates, refreshed at scrape. *)
  (match obs with
  | None -> ()
  | Some reg ->
    let offered_c =
      Obs.Registry.counter reg ~help:"client requests offered" "leopard_cluster_offered_total"
    in
    let resends_c =
      Obs.Registry.counter reg ~help:"client re-send copies" "leopard_cluster_resends_total"
    in
    let rejected_c =
      Obs.Registry.counter reg ~help:"client requests refused at replica admission"
        "leopard_cluster_rejected_total"
    in
    let throttled_c =
      Obs.Registry.counter reg ~help:"client target-ticks skipped for egress pressure"
        "leopard_cluster_throttled_total"
    in
    let blocks_c =
      Obs.Registry.counter reg ~help:"blocks f+1-executed" "leopard_cluster_executed_blocks_total"
    in
    let max_view_g =
      Obs.Registry.gauge reg ~help:"highest view of any up replica" "leopard_cluster_max_view"
    in
    Obs.Registry.on_collect reg (fun () ->
        Obs.Counter.mirror offered_c t.offered;
        Obs.Counter.mirror resends_c t.resends;
        Obs.Counter.mirror rejected_c t.rejected;
        Obs.Counter.mirror throttled_c t.throttled;
        Obs.Counter.mirror blocks_c (Workload.Tally.serials t.tally);
        let mv = ref 1 in
        Array.iteri
          (fun id node ->
            if not (Conn.is_down (Runtime.conn node)) then
              mv := max !mv (Core.Replica.view t.replicas.(id)))
          t.nodes;
        Obs.Gauge.set max_view_g !mv));
  (* Periodic exposition dump: checked once per loop iteration, written
     at most once per [metrics_interval_ns] (atomic tmp+rename, so a
     tail-ing reader never sees a torn dump). *)
  (match (obs, metrics_out) with
  | Some reg, Some path ->
    t.last_dump_ns <- Loop.now_ns loop;
    t.metrics_tick <-
      Some
        (Loop.on_tick loop (fun () ->
             let now = Loop.now_ns loop in
             if now - t.last_dump_ns >= t.metrics_interval_ns then begin
               t.last_dump_ns <- now;
               try Obs.Registry.dump_file reg path with Sys_error _ -> ()
             end))
  | _ -> ());
  (* Group commit: buffered WAL records hit the files once per loop
     iteration (and fsync per the policy), not once per append. *)
  t.store_tick <-
    Some (Loop.on_tick loop (fun () -> Array.iter (fun c -> Store.Store_file.flush !c) stores));
  (match verify_pool with
   | None -> ()
   | Some p ->
     (* Completions are delivered on the loop thread: every dispatch
        round starts with a drain ([on_tick] registered after the Conn
        flush ticks runs before them — newest first), and the pool's
        notify pipe wakes the loop's wait the moment a result lands, so
        verified messages never wait out its timeout. *)
     let drain () = ignore (Exec.Pool.drain p : int) in
     t.verify_tick <- Some (Loop.on_tick loop drain);
     Loop.watch_read loop (Exec.Pool.notify_fd p) drain);
  Array.iter Core.Replica.start replicas;
  resend_loop t;
  t

let set_replica_down t id down =
  Runtime.set_down t.nodes.(id) down;
  Sim.Trace.recordf t.trace ~at:(Loop.now t.loop)
    ~tag:(if down then "cluster.kill" else "cluster.revive")
    "%a" Net.Node_id.pp id

let data_dir t = if t.keep_data then Some t.data_dir else None

(* Process restart: the replica value dies with whatever state was only
   in memory (including the store's un-flushed buffer — [crash] drops
   it), and the replacement rebuilds itself from the node's WAL directory
   via [Replica.recover]. The replacement takes over the same [Runtime]
   node: its [set_handler] overwrites the delivery cell, and the
   cell-indirect store sink starts hitting the fresh file handle. *)
let restart_replica t id =
  Core.Replica.halt t.replicas.(id);
  Store.Store_file.crash !(t.stores.(id));
  t.stores.(id) :=
    Store.Store_file.create ?obs:t.obs ~fsync:t.fsync
      ~now_ns:(fun () -> Loop.now_ns t.loop)
      ~dir:(node_dir t.data_dir id) ();
  let pks = Array.map fst t.keys in
  let r =
    Core.Replica.recover
      ~platform:(Runtime.platform t.nodes.(id))
      ~cfg:t.cfg ~id ~sk:(snd t.keys.(id)) ~pks ~tsetup:t.tsetup ~tkey:t.tkeys.(id)
      ?obs:t.obs ~strategy:t.strategies.(id) ~hooks:t.hooks ~trace:t.trace ()
  in
  t.replicas.(id) <- r;
  Runtime.set_down t.nodes.(id) false;
  Core.Replica.start r;
  Sim.Trace.recordf t.trace ~at:(Loop.now t.loop) ~tag:"cluster.restart" "%a" Net.Node_id.pp
    id

let set_fault_filter t id f = Conn.set_fault (Runtime.conn t.nodes.(id)) f

let faulted t =
  Array.fold_left (fun acc node -> acc + Conn.faulted (Runtime.conn node)) 0 t.nodes

(* Cluster-wide data-plane counters: per-node [Conn.stats] summed. *)
let transport_stats t =
  let acc =
    { Conn.write_syscalls = 0;
      read_syscalls = 0;
      frames_sent = 0;
      frames_recvd = 0;
      bytes_sent = 0;
      bytes_recvd = 0;
      reconnects = 0 }
  in
  Array.iter
    (fun node ->
      let s = Conn.stats (Runtime.conn node) in
      acc.Conn.write_syscalls <- acc.Conn.write_syscalls + s.Conn.write_syscalls;
      acc.Conn.read_syscalls <- acc.Conn.read_syscalls + s.Conn.read_syscalls;
      acc.Conn.frames_sent <- acc.Conn.frames_sent + s.Conn.frames_sent;
      acc.Conn.frames_recvd <- acc.Conn.frames_recvd + s.Conn.frames_recvd;
      acc.Conn.bytes_sent <- acc.Conn.bytes_sent + s.Conn.bytes_sent;
      acc.Conn.bytes_recvd <- acc.Conn.bytes_recvd + s.Conn.bytes_recvd;
      acc.Conn.reconnects <- acc.Conn.reconnects + s.Conn.reconnects)
    t.nodes;
  acc

let run_while t pred = Loop.run_while t.loop (fun () -> pred t)

let up_ids t =
  List.filter
    (fun id -> not (Conn.is_down (Runtime.conn t.nodes.(id))))
    (List.init t.cfg.Core.Config.n Fun.id)

let state_converged t =
  match up_ids t with
  | [] -> true
  | first :: rest ->
    let reference = t.replicas.(first) in
    let exec = Core.Ledger.executed_up_to (Core.Replica.ledger reference) in
    let hash = Core.Replica.state_hash reference in
    List.for_all
      (fun id ->
        let r = t.replicas.(id) in
        Core.Ledger.executed_up_to (Core.Replica.ledger r) = exec
        && Crypto.Hash.equal (Core.Replica.state_hash r) hash)
      rest

let ledgers_agree t =
  match List.map (fun id -> Core.Replica.ledger t.replicas.(id)) (up_ids t) with
  | [] -> true
  | first :: rest -> List.for_all (Core.Ledger.agree first) rest

let max_view t =
  List.fold_left
    (fun acc id -> max acc (Core.Replica.view t.replicas.(id)))
    1 (up_ids t)

let metrics_report t = Option.map Obs.Registry.expose t.obs

let close t =
  if not t.closed then begin
    t.closed <- true;
    stop_load t;
    (* Final dump before teardown: the run's last word, whatever the
       periodic interval left unwritten. *)
    (match (t.obs, t.metrics_out) with
    | Some reg, Some path -> (
      try Obs.Registry.dump_file reg path with Sys_error _ -> ())
    | _ -> ());
    (match t.metrics_tick with
    | Some h ->
      Loop.remove_tick t.loop h;
      t.metrics_tick <- None
    | None -> ());
    Loop.stop t.loop;
    (* Unhook the pool from the loop before shutdown closes its pipe fds
       (the loop's rule: unwatch before close), then
       join the worker domains. Un-drained continuations are dropped —
       the replicas they would touch are being torn down anyway. *)
    (match t.verify_pool with
     | None -> ()
     | Some p ->
       (match t.verify_tick with
        | Some h ->
          Loop.remove_tick t.loop h;
          t.verify_tick <- None
        | None -> ());
       Loop.unwatch t.loop (Exec.Pool.notify_fd p);
       Exec.Pool.shutdown p);
    (* Same discipline for the store flush tick (idempotent like the
       verify tick): unhook before the handles close. *)
    (match t.store_tick with
     | Some h ->
       Loop.remove_tick t.loop h;
       t.store_tick <- None
     | None -> ());
    Array.iter (fun node -> Conn.close (Runtime.conn node)) t.nodes;
    Loop.close t.loop;
    Array.iter (fun c -> Store.Store_file.close !c) t.stores;
    (* Auto (temp) data dirs leave nothing behind; explicit ones are the
       caller's artifacts. *)
    if not t.keep_data then Store.Store_file.remove_dir t.data_dir;
    (* Reap the joined accounting state too, so a harness that builds
       clusters in a loop (the chaos corpus) cannot accrete per-run
       tables behind a still-reachable [t]. *)
    Workload.Tally.close t.tally;
    Hashtbl.reset t.pending
  end

(* -- one-shot runs ------------------------------------------------------ *)

type report = {
  n : int;
  offered : int;
  confirmed : int;
  rejected : int;
  throughput : float;
  latency : Stats.Histogram.t;
  executed_blocks : int;
  wall_sec : float;
  dropped_frames : int;
  transport : Conn.stats; (* data-plane counters summed over nodes *)
  state_hashes : (Net.Node_id.t * Crypto.Hash.t) list;
  converged : bool;
  ledgers_agree : bool;
}

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>local cluster: n=%d@,\
     offered        %d@,\
     confirmed      %d@,\
     rejected       %d@,\
     throughput     %.0f req/s@,\
     latency p50    %.1f ms@,\
     latency p99    %.1f ms@,\
     executed blks  %d@,\
     load window    %.2f s@,\
     dropped frames %d@,\
     frames sent    %d (%.3f write syscalls/frame)@,\
     frames recvd   %d (%.3f read syscalls/frame)@,\
     bytes moved    %d out / %d in@,\
     converged      %b@,\
     ledgers agree  %b@]"
    r.n r.offered r.confirmed r.rejected r.throughput
    (Stats.Histogram.quantile r.latency 0.50 *. 1e3)
    (Stats.Histogram.quantile r.latency 0.99 *. 1e3)
    r.executed_blocks r.wall_sec r.dropped_frames r.transport.Conn.frames_sent
    (let f = r.transport.Conn.frames_sent in
     if f = 0 then 0.
     else float_of_int r.transport.Conn.write_syscalls /. float_of_int f)
    r.transport.Conn.frames_recvd
    (let f = r.transport.Conn.frames_recvd in
     if f = 0 then 0.
     else float_of_int r.transport.Conn.read_syscalls /. float_of_int f)
    r.transport.Conn.bytes_sent r.transport.Conn.bytes_recvd r.converged r.ledgers_agree

let report_of t =
  let window_ns =
    (if t.load_stopped_ns > t.load_started_ns then t.load_stopped_ns
     else Loop.now_ns t.loop)
    - t.load_started_ns
  in
  let wall_sec = float_of_int (max 1 window_ns) *. 1e-9 in
  { n = t.cfg.Core.Config.n;
    offered = t.offered;
    confirmed = confirmed t;
    rejected = t.rejected;
    throughput = float_of_int (confirmed t) /. wall_sec;
    latency = Workload.Tally.latency t.tally;
    executed_blocks = Workload.Tally.serials t.tally;
    wall_sec;
    dropped_frames =
      Array.fold_left (fun acc node -> acc + Conn.dropped (Runtime.conn node)) 0 t.nodes;
    transport = transport_stats t;
    state_hashes =
      Array.to_list (Array.mapi (fun id r -> (id, Core.Replica.state_hash r)) t.replicas);
    converged = state_converged t;
    ledgers_agree = ledgers_agree t }

let run ~cfg ?load ?(duration = Sim.Sim_time.s 5) ?(drain = Sim.Sim_time.s 10)
    ?min_confirmed ?kill ?trace ?verify_domains ?data_dir ?fsync ?obs ?metrics_out
    ?metrics_interval_ns () =
  let t =
    create ~cfg ?load ?trace ?verify_domains ?data_dir ?fsync ?obs ?metrics_out
      ?metrics_interval_ns ()
  in
  (* [close] on every exit path, normal or not: an exception mid-run must
     not leak n listeners plus O(n^2) connection fds into the process
     (repeated in-process runs — the chaos corpus — would exhaust the fd
     table). [close] is idempotent, so the normal path costs nothing. *)
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      (match kill with
      | None -> ()
      | Some (id, at, revive) ->
        ignore
          (Loop.schedule t.loop ~delay:at (fun () -> set_replica_down t id true)
            : Loop.handle);
        (match revive with
        | None -> ()
        | Some at' ->
          ignore
            (Loop.schedule t.loop ~delay:at' (fun () -> set_replica_down t id false)
              : Loop.handle)));
      start_load t;
      let deadline = Loop.now_ns t.loop + Int64.to_int duration in
      run_while t (fun t ->
          Loop.now_ns t.loop < deadline
          && match min_confirmed with Some m -> confirmed t < m | None -> true);
      stop_load t;
      (* Drain: let in-flight serials finish and laggards catch up so the
         state hashes can be compared at a common execution frontier. *)
      let drain_deadline = Loop.now_ns t.loop + Int64.to_int drain in
      run_while t (fun t ->
          Loop.now_ns t.loop < drain_deadline && not (state_converged t));
      report_of t)
