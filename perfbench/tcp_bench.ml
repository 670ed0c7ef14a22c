(* The TCP workloads: an in-process [Transport.Cluster] over loopback
   sockets, fed by the benchmark's own open-loop client.

   The built-in cluster client is never started. Its work does not grow
   with the rate (one batch per target per 10 ms tick, whatever the rate)
   and it stamps requests when its tick runs, not when they were due.
   Here every batch has a fixed size and a due time on a fixed schedule;
   its [born] stamp is the due time, so a stalled loop shows as latency.
   Confirmation is the paper's rule, applied from outside by [F1], polled
   once per loop turn from a tick hook. *)

type params = {
  n : int;
  rate : float;          (* offered requests per second *)
  batch : int;           (* requests per batch *)
  payload : int;         (* bytes per request *)
  fsync : Store.Wal.fsync_policy;
  reps : int;            (* fresh clusters per untraced run; medians are reported *)
  drain_bound_s : float; (* give up waiting for confirmations after this *)
}

(* n=16 at 20k req/s: about a quarter of the knee (70-100k req/s measured
   by the knee sweep on a 2-core host, see KNEE.md), where the tail stays
   steady from run to run. Transport, codec, verification and replica
   logic do the work; the WAL (fsync never) appends cheaply. *)
let fanout =
  { n = 16; rate = 20_000.; batch = 10; payload = 128; fsync = Store.Wal.Never; reps = 5;
    drain_bound_s = 20. }

(* n=4 at 5k req/s with fsync always: every logged vote waits on fsync
   on the shared loop, so the store layer dominates and transport is
   light. *)
let durable = { fanout with n = 4; rate = 5_000.; fsync = Store.Wal.Always }

let config p =
  Core.Config.make ~n:p.n ~alpha:100 ~bft_size:10 ~payload:p.payload
    ~datablock_timeout:(Sim.Sim_time.ms 20) ~proposal_timeout:(Sim.Sim_time.ms 20) ()

(* -- the open-loop client ------------------------------------------------- *)

type client = {
  t0 : int;                  (* loop ns at which batch 0 is due *)
  interval : float;          (* ns between consecutive batches *)
  total : int;               (* batches to offer *)
  targets : int array;       (* non-leader replicas *)
  pick : Random.State.t;     (* seeded: which target each batch goes to *)
  mutable next : int;
  lag_ms : float array;      (* per batch: submit time - due time *)
  confirmed_at : int array;  (* per batch: loop ns of confirmation, -1 = none *)
  mutable offered : int;     (* requests *)
  mutable rejected : int;
  mutable confirmed : int;
  mutable duplicates : int;  (* batches seen confirmed twice *)
  mutable last_submit_ns : int;
}

let due c i = c.t0 + int_of_float (float_of_int i *. c.interval)

(* -- running ---------------------------------------------------------------- *)

let wal_root () = Filename.concat (Sys.getcwd ()) "_perfbench"

(* Warm-up batch ids, outside the measured range [0, total) and inside
   the codec's u32 id field. *)
let warmup_id0 = 0xF000_0000

(* Builds a cluster and warms it up: connections are dialled lazily, on
   first send, so one batch goes to every non-leader and set-up ends when
   those are confirmed, every node has a live connection to and from
   every peer, and all replicas have executed the same prefix. *)
let setup ~spans ~store_wrap p ~rep =
  let data_dir =
    Filename.concat (wal_root ()) (Printf.sprintf "wal-%d-%d" (Unix.getpid ()) rep)
  in
  let cfg = config p in
  let t0 = Unix.gettimeofday () in
  let c =
    Span.with_span spans (Span.name_id spans "tcp.create") (fun () ->
        Transport.Cluster.create ~cfg ~data_dir ~fsync:p.fsync ?store_wrap ())
  in
  let leader = Core.Config.leader_of_view cfg 1 in
  let warm = ref 0 in
  Array.iteri
    (fun id r ->
      if id <> leader then begin
        let b =
          Workload.Request.make ~id:(warmup_id0 + id) ~count:p.batch ~size_each:p.payload
            ~born:(Transport.Loop.now (Transport.Cluster.loop c)) ()
        in
        match Core.Replica.submit r b with
        | Core.Replica.Admitted -> warm := !warm + p.batch
        | Core.Replica.Rejected _ -> ()
      end)
    (Transport.Cluster.replicas c);
  let want = 2 * (p.n - 1) in
  let ready c =
    Transport.Cluster.confirmed c >= !warm
    && Array.for_all
         (fun node -> Transport.Conn.live_connections (Transport.Runtime.conn node) >= want)
         (Transport.Cluster.nodes c)
    && Transport.Cluster.state_converged c
  in
  let deadline = t0 +. 10. in
  Span.with_span spans (Span.name_id spans "tcp.warmup") (fun () ->
      Transport.Cluster.run_while c (fun c -> (not (ready c)) && Unix.gettimeofday () < deadline));
  (c, data_dir, Unix.gettimeofday () -. t0, ready c)

let close (c, data_dir) =
  Transport.Cluster.close c;
  Store.Store_file.remove_dir data_dir

let consensus_drops c =
  let high = List.filter (fun k -> Core.Msg.kind_priority k = Net.Nic.High) Core.Msg.all_kinds in
  Array.fold_left
    (fun acc node ->
      let conn = Transport.Runtime.conn node in
      List.fold_left (fun acc k -> acc + Transport.Conn.dropped_by_kind conn k) acc high)
    0 (Transport.Cluster.nodes c)

let dropped c =
  Array.fold_left
    (fun acc node -> acc + Transport.Conn.dropped (Transport.Runtime.conn node))
    0 (Transport.Cluster.nodes c)

(* Store sink calls are timed only in traced runs; the untraced run uses
   the cluster's own sinks unwrapped. *)
let timed_store spans =
  if not (Span.enabled spans) then None
  else begin
    let log_n = Span.name_id spans "store.log"
    and save_n = Span.name_id spans "store.save"
    and sync_n = Span.name_id spans "store.sync" in
    let timed name f x =
      let i = Span.enter spans name in
      f x;
      Span.leave spans i
    in
    Some
      (fun _id (s : Core.Store.sink) ->
        { s with
          Core.Store.log = timed log_n s.Core.Store.log;
          save = timed save_n s.Core.Store.save;
          sync = timed sync_n s.Core.Store.sync })
  end

(* What one repetition measured. *)
type rep = {
  setup_s : float;
  offered : int;
  confirmed : int;
  throughput : float;
  p50_ms : float;
  p99_ms : float;
  cpu_us_per_req : float;
  checks : (string * bool) list;
  layers : (string * float * string) list;
}

(* One repetition: a fresh cluster, [seconds] of open-loop load, a full
   drain, then the correctness checks. *)
let run_rep ~spans p ~seed ~seconds ~rep =
  let c, data_dir, setup_s, setup_ok =
    Span.with_span spans (Span.name_id spans "tcp.setup") (fun () ->
        setup ~spans ~store_wrap:(timed_store spans) p ~rep)
  in
  Fun.protect
    ~finally:(fun () ->
      Span.with_span spans (Span.name_id spans "tcp.close") (fun () -> close (c, data_dir)))
    (fun () ->
      let loop = Transport.Cluster.loop c in
      let cfg = config p in
      let replicas = Transport.Cluster.replicas c in
      let leader = Core.Config.leader_of_view cfg 1 in
      let batch_rate = p.rate /. float_of_int p.batch in
      let total = int_of_float (Float.round (seconds *. batch_rate)) in
      let cl =
        { t0 = Transport.Loop.now_ns loop;
          interval = 1e9 /. batch_rate;
          total;
          targets =
            Array.of_list (List.filter (fun id -> id <> leader) (List.init p.n Fun.id));
          pick = Random.State.make [| seed; rep |];
          next = 0;
          lag_ms = Array.make total 0.;
          confirmed_at = Array.make total (-1);
          offered = 0;
          rejected = 0;
          confirmed = 0;
          duplicates = 0;
          last_submit_ns = 0 }
      in
      let tr = F1.create cfg replicas in
      let cluster_confirmed0 = Transport.Cluster.confirmed c in
      let mempool_max = ref 0 in
      let on_batch (b : Workload.Request.t) =
        let id = b.Workload.Request.id in
        if id >= 0 && id < total then
          if cl.confirmed_at.(id) >= 0 then cl.duplicates <- cl.duplicates + 1
          else begin
            cl.confirmed_at.(id) <- Transport.Loop.now_ns loop;
            cl.confirmed <- cl.confirmed + b.Workload.Request.count
          end
      in
      let turn_n = Span.name_id spans "loop.turn" in
      let turn = ref (-1) in
      let tick =
        Transport.Loop.on_tick loop (fun () ->
            (* a loop turn ends here and the next begins *)
            Span.leave spans !turn;
            F1.poll tr replicas on_batch;
            Array.iter
              (fun r -> mempool_max := max !mempool_max (Core.Replica.mempool_pending r))
              replicas;
            turn := Span.enter spans turn_n)
      in
      let submit_n = Span.name_id spans "client.submit" in
      let rec fire () =
        while cl.next < cl.total && due cl cl.next <= Transport.Loop.now_ns loop do
          let i = cl.next in
          cl.next <- i + 1;
          let d = due cl i in
          cl.lag_ms.(i) <- float_of_int (Transport.Loop.now_ns loop - d) *. 1e-6;
          let b =
            Workload.Request.make ~id:i ~count:p.batch ~size_each:p.payload
              ~born:(Int64.of_int d) ()
          in
          let target = cl.targets.(Random.State.int cl.pick (Array.length cl.targets)) in
          cl.offered <- cl.offered + p.batch;
          let s = Span.enter ~batch:i spans submit_n in
          (match Core.Replica.submit replicas.(target) b with
           | Core.Replica.Admitted -> ()
           | Core.Replica.Rejected _ -> cl.rejected <- cl.rejected + p.batch);
          Span.leave spans s;
          cl.last_submit_ns <- Transport.Loop.now_ns loop
        done;
        if cl.next < cl.total then
          ignore
            (Transport.Loop.schedule_at loop ~at:(Int64.of_int (due cl cl.next)) fire
              : Transport.Loop.handle)
      in
      (* A phase of loop driving: its time is tiled by loop-turn spans. *)
      let phase name f =
        let i = Span.enter spans (Span.name_id spans name) in
        turn := Span.enter spans turn_n;
        f ();
        Span.leave spans !turn;
        turn := -1;
        Span.leave spans i
      in
      let gc0 = Gc.quick_stat () in
      let tr0 = Transport.Cluster.transport_stats c in
      let vs0 = Transport.Cluster.verify_stats c in
      let cpu0 = Outcome.cpu_s () and wall0 = Unix.gettimeofday () in
      phase "tcp.load" (fun () ->
          ignore
            (Transport.Loop.schedule_at loop ~at:(Int64.of_int cl.t0) fire : Transport.Loop.handle);
          Transport.Cluster.run_while c (fun _ -> cl.next < cl.total));
      let load_end = cl.last_submit_ns in
      (* Full drain: every admitted request confirmed, up to a bound. *)
      let drain_deadline = Unix.gettimeofday () +. p.drain_bound_s in
      phase "tcp.drain" (fun () ->
          Transport.Cluster.run_while c (fun _ ->
              cl.confirmed < cl.offered - cl.rejected && Unix.gettimeofday () < drain_deadline));
      let cpu = Outcome.cpu_s () -. cpu0 and wall = Unix.gettimeofday () -. wall0 in
      let drain_s = float_of_int (Transport.Loop.now_ns loop - load_end) *. 1e-9 in
      let gc1 = Gc.quick_stat () in
      let tr1 = Transport.Cluster.transport_stats c in
      let vs1 = Transport.Cluster.verify_stats c in
      (* Then let laggards reach the common frontier before comparing state. *)
      let settle_deadline = Unix.gettimeofday () +. 5. in
      phase "tcp.settle" (fun () ->
          Transport.Cluster.run_while c (fun c ->
              (not (Transport.Cluster.state_converged c))
              && Unix.gettimeofday () < settle_deadline));
      Transport.Loop.remove_tick loop tick;
      let converged, agree =
        Span.with_span spans (Span.name_id spans "tcp.check") (fun () ->
            (Transport.Cluster.state_converged c, Transport.Cluster.ledgers_agree c))
      in
      let view_changes = Transport.Cluster.view_changes c in
      let cluster_confirmed = Transport.Cluster.confirmed c - cluster_confirmed0 in
      let latencies =
        Array.of_list
          (List.filter_map Fun.id
             (List.mapi
                (fun i at -> if at < 0 then None else Some (float_of_int (at - due cl i) *. 1e-6))
                (Array.to_list cl.confirmed_at)))
      in
      let in_window =
        Array.fold_left
          (fun acc at -> if at >= 0 && at <= load_end then acc + p.batch else acc)
          0 cl.confirmed_at
      in
      let confirmed = float_of_int cl.confirmed in
      let per_req x = Outcome.ratio x confirmed in
      let module C = Transport.Conn in
      let d f = float_of_int (f tr1 - f tr0) in
      let frames = d (fun s -> s.C.frames_sent) in
      let verify =
        match (vs0, vs1) with
        | Some a, Some b ->
          let tasks = float_of_int (b.Exec.Pool.tasks - a.Exec.Pool.tasks) in
          let busy = float_of_int (b.Exec.Pool.busy_ns - a.Exec.Pool.busy_ns) *. 1e-9 in
          let inline = float_of_int (b.Exec.Pool.inline_runs - a.Exec.Pool.inline_runs) in
          [ ("verify.tasks_per_req", per_req tasks, "task");
            ("verify.task_mean_us", Outcome.ratio (busy *. 1e6) tasks, "us");
            ("verify.busy_share", Outcome.ratio busy wall, "ratio");
            ("verify.inline_share", Outcome.ratio inline tasks, "ratio") ]
        | _ -> []
      in
      let sum a = Array.fold_left ( +. ) 0. a in
      let log_spans = Span.durations spans "store.log" in
      let store_s =
        sum log_spans
        +. sum (Span.durations spans "store.save")
        +. sum (Span.durations spans "store.sync")
      in
      let layers =
        [ ("client.offered_rps", p.rate, "req/s");
          ("client.latency_samples", float_of_int (Array.length latencies), "count");
          ("client.tick_lag_p99_ms", Outcome.quantile cl.lag_ms 0.99, "ms");
          ("client.submit_us", Outcome.mean (Span.durations spans "client.submit") *. 1e6, "us");
          ("client.rejected", float_of_int cl.rejected, "count");
          ("client.drain_s", drain_s, "s");
          ("core.reqs_per_datablock", Outcome.ratio confirmed (float_of_int tr.F1.datablocks), "req");
          ("core.reqs_per_bftblock", Outcome.ratio confirmed (float_of_int tr.F1.serials), "req");
          ("core.mempool_pending_max", float_of_int !mempool_max, "req");
          ("core.executed_blocks", float_of_int tr.F1.serials, "count");
          ( "core.checkpoints",
            float_of_int
              (Array.fold_left (fun acc r -> max acc (Core.Replica.low_watermark r)) 0 replicas
              / cfg.Core.Config.checkpoint_interval),
            "count" );
          ("core.view_changes", float_of_int view_changes, "count");
          ("transport.frames_per_req", per_req frames, "frame");
          ("transport.bytes_per_req", per_req (d (fun s -> s.C.bytes_sent)), "B");
          ( "transport.writes_per_frame",
            Outcome.ratio (d (fun s -> s.C.write_syscalls)) frames,
            "call" );
          ( "transport.reads_per_frame",
            Outcome.ratio (d (fun s -> s.C.read_syscalls)) (d (fun s -> s.C.frames_recvd)),
            "call" );
          ( "transport.loop_turn_p99_ms",
            Outcome.quantile (Span.durations spans "loop.turn") 0.99 *. 1e3,
            "ms" );
          ("transport.dropped", float_of_int (dropped c), "count") ]
        @ verify
        @ [ ("store.appends_per_req", per_req (float_of_int (Array.length log_spans)), "call");
            ("store.log_s", sum log_spans, "s");
            ("store.log_p99_us", Outcome.quantile log_spans 0.99 *. 1e6, "us");
            ("store.sync_s", sum (Span.durations spans "store.sync"), "s");
            ("store.save_s", sum (Span.durations spans "store.save"), "s");
            ("store.busy_share", Outcome.ratio store_s wall, "ratio");
            ( "gc.minor_words_per_req",
              per_req (gc1.Gc.minor_words -. gc0.Gc.minor_words),
              "words" );
            ( "gc.major_collections",
              float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
              "count" );
            ("process.cpu_util", Outcome.ratio cpu wall, "ratio") ]
      in
      { setup_s;
        offered = cl.offered;
        confirmed = cl.confirmed;
        throughput =
          Outcome.ratio (float_of_int in_window) (float_of_int (load_end - cl.t0) *. 1e-9);
        p50_ms = Outcome.quantile latencies 0.50;
        p99_ms = Outcome.quantile latencies 0.99;
        cpu_us_per_req = per_req (cpu *. 1e6);
        checks =
          [ ("setup_ready", setup_ok);
            ("all_confirmed", cl.confirmed = cl.offered);
            ("outside_count_matches_cluster", cl.confirmed = cluster_confirmed && tr.F1.missing = 0);
            ("no_duplicate_confirmations", cl.duplicates = 0);
            ("state_converged", converged);
            ("ledgers_agree", agree);
            ("no_view_change", view_changes = 0);
            ("no_consensus_drops", consensus_drops c = 0) ];
        layers })

(* An untraced run makes [p.reps] repetitions and reports the median of
   each timing over them; a traced run makes one, whose per-layer numbers
   it reports. *)
let run ?(spans = Span.create ~enabled:false) p ~seed ~seconds =
  let root = Span.enter spans (Span.name_id spans "run") in
  let n = if Span.enabled spans then 1 else p.reps in
  let reps =
    List.init n (fun rep ->
        let r = run_rep ~spans p ~seed ~seconds ~rep in
        (* Free the closed cluster before the next is built, so the heap
           peak is one cluster's, not a pile-up of the previous ones. *)
        Gc.full_major ();
        r)
  in
  Span.leave spans root;
  let med f = Outcome.median (Array.of_list (List.map f reps)) in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  let offered = total (fun r -> r.offered) and confirmed = total (fun r -> r.confirmed) in
  let end_to_end =
    [ ("setup_s", med (fun r -> r.setup_s), "s");
      ("throughput_rps", med (fun r -> r.throughput), "req/s");
      ("latency_p50_ms", med (fun r -> r.p50_ms), "ms");
      ("latency_p99_ms", med (fun r -> r.p99_ms), "ms");
      ("cpu_us_per_req", med (fun r -> r.cpu_us_per_req), "us");
      ("confirmed_ratio", Outcome.ratio (float_of_int confirmed) (float_of_int offered), "ratio");
      ("peak_heap_mb", Outcome.top_heap_mb (), "MB") ]
  in
  let checks =
    List.map
      (fun (name, _) ->
        (name, List.for_all (fun r -> List.assoc name r.checks) reps))
      (List.hd reps).checks
  in
  ( Outcome.make ~checks ~attempted:offered ~failed:(offered - confirmed) end_to_end,
    (List.hd (List.rev reps)).layers )
