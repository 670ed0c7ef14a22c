type t = {
  loop : Loop.t;
  nodes : Runtime.node array;
  driver : Core.Driver.t;
  (* the load window, for the report's rate *)
  mutable load_started_ns : int option;
  mutable load_stopped_ns : int option;
  (* verification pool (None = inline verification on the loop thread) *)
  verify_pool : Exec.Pool.t option;
  mutable verify_tick : Loop.tick_handle option;
  (* durable state: one WAL directory per node under [data_dir]. A slot
     holds the live file handle of the node's current incarnation (None
     before the first); the sinks threaded into the node platforms read
     the slot on every call, so a restarted replica writes to its new
     handle through the same platform value. *)
  stores : Store.Store_file.t option array;
  data_dir : string;
  keep_data : bool;
  mutable store_tick : Loop.tick_handle option;
  (* the registry shared by every layer, and the periodic file dump *)
  obs : Obs.Registry.t option;
  metrics_out : string option;
  mutable metrics_tick : Loop.tick_handle option;
  mutable closed : bool;
}

let loop t = t.loop
let nodes t = t.nodes
let driver t = t.driver
let replicas t = Core.Driver.replicas t.driver
let offered t = Core.Driver.offered t.driver
let confirmed t = Core.Driver.confirmed t.driver
let rejected t = Core.Driver.rejected t.driver
let view_changes t = Core.Driver.view_changes t.driver
let state_converged t = Core.Driver.converged t.driver
let ledgers_agree t = Core.Driver.safety_ok t.driver
let verify_stats t = Option.map Exec.Pool.stats t.verify_pool

(* The client batches every 10 ms of wall-clock time. *)
let batch_period = Sim.Sim_time.ms 10

let start_load t =
  if t.load_started_ns = None then begin
    t.load_started_ns <- Some (Loop.now_ns t.loop);
    Core.Driver.start_load t.driver
  end

let stop_load t =
  if t.load_started_ns <> None && t.load_stopped_ns = None then begin
    t.load_stopped_ns <- Some (Loop.now_ns t.loop);
    Core.Driver.stop_load t.driver
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
  let stores = Array.make n None in
  let store_sink id =
    let live () = Option.get stores.(id) in
    let base =
      Core.Store.
        { enabled = true;
          log = (fun r -> Store.Store_file.log (live ()) r);
          save = (fun s -> Store.Store_file.save (live ()) s);
          load = (fun () -> Store.Store_file.load (live ()));
          sync = (fun () -> Store.Store_file.sync (live ())) }
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
  let is_down id = Conn.is_down (Runtime.conn nodes.(id)) in
  let plane =
    { Core.Driver.now = (fun () -> Loop.now loop);
      schedule = (fun ~delay f -> ignore (Loop.schedule loop ~delay f : Loop.handle));
      (* A new incarnation's old store handle dies with its un-flushed
         buffer; the replacement reopens the node's WAL directory. *)
      platform =
        (fun id ->
          Option.iter Store.Store_file.crash stores.(id);
          stores.(id) <-
            Some
              (Store.Store_file.create ?obs ~fsync
                 ~now_ns:(fun () -> Loop.now_ns loop)
                 ~dir:(node_dir data_dir id) ());
          Runtime.platform nodes.(id));
      (* In-process submission, lost while the node is down (as on the
         simulated network). *)
      ingress = (fun ~dst ~size:_ k -> if not (is_down dst) then k ());
      set_down = (fun id down -> Runtime.set_down nodes.(id) down);
      is_down }
  in
  let driver =
    Core.Driver.create plane
      { Core.Driver.cfg;
        key_rng = Sim.Rng.create 42L;
        byzantine;
        load;
        tick = batch_period;
        load_until = None;
        resend = client_resend;
        horizon = None;
        trace;
        obs;
        on_confirm = (fun ~at:_ ~proposed:_ _ _ -> ()) }
  in
  let t =
    { loop;
      nodes;
      driver;
      load_started_ns = None;
      load_stopped_ns = None;
      verify_pool;
      verify_tick = None;
      stores;
      data_dir;
      keep_data;
      store_tick = None;
      obs;
      metrics_out;
      metrics_tick = None;
      closed = false }
  in
  (* Periodic exposition dump: checked once per loop iteration, written
     at most once per [metrics_interval_ns] (atomic tmp+rename, so a
     tail-ing reader never sees a torn dump). *)
  (match (obs, metrics_out) with
  | Some reg, Some path ->
    let last_dump_ns = ref (Loop.now_ns loop) in
    t.metrics_tick <-
      Some
        (Loop.on_tick loop (fun () ->
             let now = Loop.now_ns loop in
             if now - !last_dump_ns >= metrics_interval_ns then begin
               last_dump_ns := now;
               try Obs.Registry.dump_file reg path with Sys_error _ -> ()
             end))
  | _ -> ());
  (* Group commit: buffered WAL records hit the files once per loop
     iteration (and fsync per the policy), not once per append. *)
  t.store_tick <-
    Some (Loop.on_tick loop (fun () -> Array.iter (Option.iter Store.Store_file.flush) stores));
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
  t

let set_replica_down t id down =
  (Core.Driver.plane t.driver).Core.Driver.set_down id down;
  Sim.Trace.recordf (Core.Driver.trace t.driver) ~at:(Loop.now t.loop)
    ~tag:(if down then "cluster.kill" else "cluster.revive")
    "%a" Net.Node_id.pp id

(* Process restart: the replica value dies with whatever state was only
   in memory (including the store's un-flushed buffer), and the
   replacement rebuilds itself from the node's WAL directory. It takes
   over the same [Runtime] node: its [set_handler] overwrites the
   delivery cell. *)
let restart_replica t id = Core.Driver.restart_replica t.driver id

let set_fault_filter t id f = Conn.set_fault (Runtime.conn t.nodes.(id)) f

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
    Array.iter (Option.iter Store.Store_file.close) t.stores;
    (* Auto (temp) data dirs leave nothing behind; explicit ones are the
       caller's artifacts. *)
    if not t.keep_data then Store.Store_file.remove_dir t.data_dir;
    (* Reap the client's accounting state too, so a harness that builds
       clusters in a loop (the chaos corpus) cannot accrete per-run
       tables behind a still-reachable [t]. *)
    Core.Driver.close t.driver
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
    Option.value t.load_stopped_ns ~default:(Loop.now_ns t.loop)
    - Option.value t.load_started_ns ~default:0
  in
  let wall_sec = float_of_int (max 1 window_ns) *. 1e-9 in
  let tally = Core.Driver.tally t.driver in
  { n = Array.length t.nodes;
    offered = offered t;
    confirmed = confirmed t;
    rejected = rejected t;
    throughput = float_of_int (confirmed t) /. wall_sec;
    latency = Workload.Tally.latency tally;
    executed_blocks = Workload.Tally.serials tally;
    wall_sec;
    dropped_frames =
      Array.fold_left (fun acc node -> acc + Conn.dropped (Runtime.conn node)) 0 t.nodes;
    transport = transport_stats t;
    state_hashes =
      Array.to_list (Array.mapi (fun id r -> (id, Core.Replica.state_hash r)) (replicas t));
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
