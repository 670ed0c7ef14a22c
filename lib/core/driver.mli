(** The client and the cluster checks, written once for both planes.

    A plane hosts replicas: {!Runner} on the discrete-event simulator,
    [Transport.Cluster] over loopback TCP. It supplies a {!plane} — a
    clock, a fresh {!Platform.t} per replica incarnation, the client's
    ingress path and fail-stop control — and keeps what only it has
    (engine and network, or loop, sockets and WAL files). This module owns
    everything above that:

    - key material, Byzantine strategies and the replica array;
    - the replica hooks that feed the f+1 {!Workload.Tally} and the
      view-change bookkeeping;
    - the open-loop client: a {!Workload.Generator} on the plane's
      clock, the s > 1 fan-out (§4.1) and the timeout re-send heap
      (§4.3);
    - process restart ({!restart_replica});
    - the checks every report and chaos oracle reads.

    {2 Measurements}

    Each is defined once, here, and means the same on both planes:

    - {!offered}: every request the client generated, admitted or not.
    - {!confirmed}: requests of serials that reached f+1 executions, each
      batch counted once ({!Workload.Tally}).
    - {!rejected}: requests in client submissions that a replica refused
      at admission (any [Rejected] verdict: original, fan-out copy or
      re-send).
    - {!view_changes}: the highest view any replica entered, minus 1.
    - {!max_view}: the highest view among the honest replicas.
    - {!equivocations}: evidence pairs collected by the honest replicas.
    - {!safety_ok}: the honest replicas' executed ledgers agree
      position-wise.
    - {!converged} and {!frontier}: over the honest replicas that are
      up. *)

type plane = {
  now : unit -> Sim.Sim_time.t;
  schedule : delay:Sim.Sim_time.span -> (unit -> unit) -> unit;
  platform : Net.Node_id.t -> Platform.t;
      (** the host of a new incarnation of replica [id]: called once per
          replica by {!create} and again by each {!restart_replica} *)
  ingress : dst:Net.Node_id.t -> size:int -> (unit -> unit) -> unit;
      (** carry a client message of [size] bytes to [dst], then run the
          continuation there; nothing arrives while [dst] is down *)
  set_down : Net.Node_id.t -> bool -> unit;
  is_down : Net.Node_id.t -> bool;
}

type spec = {
  cfg : Config.t;
  key_rng : Sim.Rng.t;  (** draws every signing and threshold key *)
  byzantine : (Net.Node_id.t * Byzantine.t) list;
  load : float;  (** offered load, requests/s *)
  tick : Sim.Sim_time.span;  (** client batching period *)
  load_until : Sim.Sim_time.t option;  (** the client stops offering here *)
  resend : Sim.Sim_time.span option;
      (** re-send an unconfirmed batch after this long, then with capped
          exponential backoff; [None] = never *)
  horizon : Sim.Sim_time.t option;
      (** the end of the run: the re-send scan stops rescheduling here *)
  trace : Sim.Trace.t;
  obs : Obs.Registry.t option;
      (** replicas register their counters here, the tally its confirm
          instruments, and this module the client aggregates
          ([leopard_cluster_*]) *)
  on_confirm :
    at:Sim.Sim_time.t ->
    proposed:Sim.Sim_time.t option ->
    Datablock.t ->
    Workload.Request.t ->
    unit;
      (** called once per newly confirmed batch, with the instant its
          serial reached f+1 executions, the instant the serial was first
          proposed (if seen) and the datablock that carried it *)
}

type t

val create : plane -> spec -> t
(** Draws the keys, builds every replica on [plane.platform] and starts
    it. The client is idle until {!start_load}. *)

val start_load : t -> unit
(** Starts the client, and the re-send scan when [spec.resend] is set.
    The client avoids the view-1 leader (unless the leader generates
    datablocks); without re-sends it also avoids the Byzantine replicas,
    so everything offered is confirmable. Idempotent. *)

val stop_load : t -> unit

val restart_replica : t -> Net.Node_id.t -> unit
(** Process restart: halts the replica, rebuilds it with
    [Replica.recover] on a fresh [plane.platform], brings it back up and
    starts it. Unlike [plane.set_down], in-memory state does not survive,
    only what the store made durable. *)

val close : t -> unit
(** Stops the client and drops the per-serial and per-batch tables; the
    counts stay readable. *)

val plane : t -> plane
val replicas : t -> Replica.t array
val trace : t -> Sim.Trace.t
val tally : t -> Workload.Tally.t
val honest_ids : t -> Net.Node_id.t list

(** {2 Measurements and checks} *)

val offered : t -> int
val confirmed : t -> int
val rejected : t -> int

val all_confirmed : t -> bool
(** Every batch the client generated is confirmed. *)

val view_changes : t -> int

val vc_trigger_to_entry : t -> float option
(** Seconds from the first view-change trigger to the last view entry. *)

val max_view : t -> int
val equivocations : t -> int
val safety_ok : t -> bool

val converged : t -> bool
(** The honest up replicas have executed the same prefix and report the
    same {!Replica.state_hash}. *)

val frontier : t -> int
(** The highest [executed_up_to] among the honest up replicas. *)
