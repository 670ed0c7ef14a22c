(** An in-process Leopard cluster over real loopback TCP.

    [n] replicas, each with its own {!Conn} endpoint and
    {!Core.Platform}, share one {!Loop} in one process; every message
    between them is framed, written to a socket, read back and decoded —
    the full deployable stack, minus process isolation.

    This is the TCP plane's adapter over {!Core.Driver}: the client,
    confirmation accounting, restart and checks are [Core.Driver]'s, the
    same code the simulator's [Core.Runner] runs. The client is open
    loop: every 10 ms of wall-clock time it offers the requests owed
    since its previous tick, submitted in-process to the target replica
    (and lost while that replica is down).

    Wall-clock time replaces simulated time, so reports are measurements
    of this machine, not of the paper's testbed — the point is to
    exercise the real transport, not to reproduce Figure 8. *)

type t

val max_replicas : int
(** The most replicas one process can host, read from the soft
    [RLIMIT_NOFILE] at startup. Every node holds [2n] fds (a connection
    each way per peer, its listener and its WAL segment), and all of
    them count against the process's open-file limit; a few more are
    kept back for stdio, the loop's epoll fd, the verification pool's
    pipe and snapshot writes. At the common default of 1024 the cap is
    22; raise it with [ulimit -n]. *)

val check_size : n:int -> (unit, string) result
(** [Error] with a one-line reason when [n > max_replicas]. *)

val create :
  cfg:Core.Config.t ->
  ?load:float ->
  ?outbuf_hwm:int ->
  ?trace:Sim.Trace.t ->
  ?byzantine:(Net.Node_id.t * Core.Byzantine.t) list ->
  ?client_resend:Sim.Sim_time.span ->
  ?verify_domains:int ->
  ?data_dir:string ->
  ?fsync:Store.Wal.fsync_policy ->
  ?store_wrap:(Net.Node_id.t -> Core.Store.sink -> Core.Store.sink) ->
  ?obs:Obs.Registry.t ->
  ?metrics_out:string ->
  ?metrics_interval_ns:int ->
  unit ->
  t
(** Builds the cluster: binds [n] ephemeral loopback listeners, wires
    every pair, creates and starts the replicas. [load] is the client
    request rate (default 2000 req/s) — not offered until
    {!start_load}. [byzantine] assigns adversarial strategies by id
    (default: all honest). [client_resend] makes the client re-send
    unconfirmed batches after that span (resend-tagged, so receivers arm
    the view-change watchdog — required for any TCP-plane view change).

    [verify_domains] sizes the shared verification pool: crypto checks
    run on worker domains ({!Core.Verify.pooled}) and completions are
    drained by a loop tick plus the pool's notify fd, so [read(2)] and
    [write(2)] never wait on crypto. Default: on, with
    [min 4 (recommended_domain_count - 1)] workers (at least 1);
    [Some 0] verifies inline on the loop thread (the pre-pool
    behaviour).

    Every replica gets a durable store ([Store.Store_file]) in its own
    WAL directory [node-<id>/] under [data_dir]. With no [data_dir] the
    cluster uses a per-run temp directory and removes it in {!close};
    an explicit [data_dir] is kept (failure artifacts, external
    inspection). [fsync] is the WAL durability policy (default
    [Never] — group-committed writes, durability left to the page
    cache). [store_wrap] decorates each node's sink (fault injection:
    [Core.Store.with_torn_tail]).

    Raises [Invalid_argument] with the {!check_size} reason, before
    binding any socket, when [cfg.n] exceeds {!max_replicas}.

    [obs] attaches a metrics registry to every layer: per-replica
    consensus counters, per-node transport mirrors, the shared verify
    pool and the per-node WAL stores, plus [Core.Driver]'s
    [leopard_confirm_latency_ns] histogram and client aggregates.
    [metrics_out] writes the exposition text to that file — atomically,
    at most once per [metrics_interval_ns] (default 1 s) from a loop
    tick, and a final time in {!close}; when [metrics_out] is given
    without [obs], a private registry is created. *)

val loop : t -> Loop.t
val replicas : t -> Core.Replica.t array
val nodes : t -> Runtime.node array
val driver : t -> Core.Driver.t

val start_load : t -> unit
(** Starts the client (once; later calls do nothing). *)

val stop_load : t -> unit

val offered : t -> int
(** {!Core.Driver.offered}: every request generated. *)

val confirmed : t -> int
(** Requests confirmed: counted once, at the (f+1)-th execution of the
    serial containing them. *)

val set_replica_down : t -> Net.Node_id.t -> bool -> unit
(** Fail-stop / revive a replica's transport (the state machine keeps
    its state, as with the simulator's [set_down]). Client requests to a
    down replica are lost. *)

val restart_replica : t -> Net.Node_id.t -> unit
(** Process restart of one replica ({!Core.Driver.restart_replica}): the
    state machine dies with its store's un-flushed buffer, a replacement
    is rebuilt from the node's WAL directory, takes over the node's
    delivery handler and rejoins immediately. Unlike
    {!set_replica_down}, in-memory state does NOT survive — only what
    the store made durable. *)

val set_fault_filter :
  t -> Net.Node_id.t -> (dst:Net.Node_id.t -> Core.Msg.t -> Conn.fault_verdict) option -> unit
(** Installs (or removes) replica [id]'s outbound link-fault filter (see
    {!Conn.set_fault}); the chaos harness builds partitions and
    drop/delay/duplicate rules out of these. *)

val transport_stats : t -> Conn.stats
(** Data-plane counters ({!Conn.stats}) summed over nodes — a fresh
    snapshot record each call. *)

val rejected : t -> int
(** {!Core.Driver.rejected}: requests the replicas refused at admission.
    Zero with the overload controls off. *)

val view_changes : t -> int
(** {!Core.Driver.view_changes}: the highest view entered, minus 1. *)

val verify_stats : t -> Exec.Pool.stats option
(** Verification-pool counters ([None] when verification is inline). *)

val run_while : t -> (t -> bool) -> unit
(** Drives the shared loop while the predicate holds. *)

val state_converged : t -> bool
(** {!Core.Driver.converged}: the honest up replicas report the same
    [executed_up_to] and {!Core.Replica.state_hash}. *)

val ledgers_agree : t -> bool
(** {!Core.Driver.safety_ok}: position-wise equality of the honest
    replicas' executed ledgers, over however far each has executed. *)

val close : t -> unit
(** Stops the load, closes every connection, store and the loop itself
    ({!Loop.close}), and removes an automatic data directory.
    Idempotent. *)

(** {2 One-shot runs} *)

type report = {
  n : int;
  offered : int;
  confirmed : int;
  rejected : int;            (** {!rejected} *)
  throughput : float;        (** confirmed req/s over the load window *)
  latency : Stats.Histogram.t;   (** client-perceived confirmation latency *)
  executed_blocks : int;
  wall_sec : float;          (** load window, wall-clock seconds *)
  dropped_frames : int;      (** {!Conn.dropped}, summed over nodes *)
  transport : Conn.stats;    (** {!transport_stats} snapshot at run end *)
  state_hashes : (Net.Node_id.t * Crypto.Hash.t) list;
  converged : bool;          (** {!state_converged} after the drain *)
  ledgers_agree : bool;      (** position-wise honest-ledger equality *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  cfg:Core.Config.t ->
  ?load:float ->
  ?duration:Sim.Sim_time.span ->
  ?drain:Sim.Sim_time.span ->
  ?min_confirmed:int ->
  ?kill:Net.Node_id.t * Sim.Sim_time.span * Sim.Sim_time.span option ->
  ?trace:Sim.Trace.t ->
  ?verify_domains:int ->
  ?data_dir:string ->
  ?fsync:Store.Wal.fsync_policy ->
  ?obs:Obs.Registry.t ->
  ?metrics_out:string ->
  ?metrics_interval_ns:int ->
  unit ->
  report
(** Creates a cluster, offers load for [duration] (default 5 s; stops
    early once [min_confirmed] is reached, when given), then drains —
    load off, loop running — until {!state_converged} or the [drain]
    bound (default 10 s). [kill] fail-stops a replica at an offset into
    the run and optionally revives it later. [data_dir]/[fsync]
    configure the per-node durable stores (see {!create}). The cluster
    is closed before returning. *)
