(** Open-loop client workload generator.

    Injects request batches at a configured aggregate rate, spread evenly
    over the target replicas, through the network's ingress model (so
    client traffic consumes replica ingress bandwidth, as in Table 4's
    "Reqs. from Clients" row). Open-loop means the offered load does not
    slow down when the system lags — saturation shows up as growing
    mempools and latency, like real clients hammering a BFT service. *)

type t

type submit = target:Net.Node_id.t -> Request.t -> unit
(** Called when a batch has fully entered the target replica (after
    ingress serialization). *)

(** The time source a generator runs on: the simulator's engine, or the
    socket event loop. *)
type clock = {
  now : unit -> Sim.Sim_time.t;
  schedule : delay:Sim.Sim_time.span -> (unit -> unit) -> unit;
}

val engine_clock : Sim.Engine.t -> clock

val start :
  clock ->
  rate:float ->
  payload:int ->
  targets:Net.Node_id.t list ->
  inject:(dst:Net.Node_id.t -> size:int -> (unit -> unit) -> unit) ->
  submit:submit ->
  ?on_batch:(Request.t -> unit) ->
  ?tick:Sim.Sim_time.span ->
  ?until:Sim.Sim_time.t ->
  unit ->
  t
(** [start clock ~rate ~payload ~targets ~inject ~submit ()] begins
    injecting [rate] requests/s of [payload] bytes each, round-robin over
    [targets], batched per [tick] (default 20 ms). Each tick offers the
    requests owed for the clock time elapsed since the previous one, so a
    late tick makes up what a stalled host missed. Stops at [until] when
    given. Requires a non-empty target list and [rate >= 0].

    [on_batch] is invoked once for every batch the moment it is created
    (including {!make_batch} ones) — the hook a client re-send scheduler
    uses to register deadlines without ever scanning {!batches}. *)

val stop : t -> unit

val offered : t -> int
(** Requests offered so far. *)

val batches : t -> Request.t list
(** All batches created, newest first (for confirmation scans in tests
    and liveness checks). *)

val next_batch_id : t -> int
(** The id the next created batch will get (ids are dense from 0). *)

val make_batch : t -> at:Sim.Sim_time.t -> count:int -> ?resend:bool -> unit -> Request.t
(** Creates an extra batch outside the periodic schedule (used for
    targeted submissions and re-sends); recorded in {!batches}. *)
