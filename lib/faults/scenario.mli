(** The declarative fault-schedule DSL.

    A scenario is a named, fixed-size ([n]) schedule of timed fault
    events plus the invariants the run must uphold ({!expect}); together
    with an RNG seed it fully determines a chaos run on either plane —
    re-running [(seed, scenario)] in the simulator yields a
    byte-identical trace (see [Harness]).

    Grammar (see DESIGN.md §9):
    {v
      scenario := name summary n byzantine* tweak* event* settle expect
      event    := at action
      action   := Crash id | Revive id | Restart id
                | Partition [[ids];[ids];…] | Heal
                | Drop rule | Delay (rule, span) | Duplicate rule
      rule     := src? dst? kinds? prob?
    v}

    [Crash]/[Revive] are {e transport-partition} faults: the node's
    links go down and come back (the plane's [Core.Driver] [set_down]), but its
    in-memory state survives untouched —
    they model an unreachable replica, not a dead one. [Restart] is the
    {e process} fault: the replica loses everything it did not make
    durable and is rebuilt from its store via [Core.Replica.recover]
    ([Core.Driver.restart_replica], on either plane).
    Everything else is a link fault evaluated per wire crossing by
    [Injector]. *)

(** A message predicate for link faults. [None] fields match anything;
    [prob] applies the fault to each matching message independently with
    that probability (drawn from the injector's seeded RNG). *)
type rule = {
  src : Net.Node_id.t option;
  dst : Net.Node_id.t option;
  kinds : Core.Msg.kind list option;
  prob : float;
}

val rule :
  ?src:Net.Node_id.t -> ?dst:Net.Node_id.t -> ?kinds:Core.Msg.kind list ->
  ?prob:float -> unit -> rule
(** Defaults: match every message, probability 1. *)

type action =
  | Crash of Net.Node_id.t
  | Revive of Net.Node_id.t
  | Restart of Net.Node_id.t
      (** kill the process and recover it from its durable store: the
          WAL-backed stores on the TCP plane, in-memory sinks in the
          simulator. Un-flushed writes are lost. *)
  | Partition of Net.Node_id.t list list
      (** disjoint groups; unlisted replicas form one implicit further
          group. Messages crossing a group boundary are dropped (both
          directions) — [Partition [[v]]] isolates [v]. *)
  | Heal  (** clears the partition and every installed link rule *)
  | Drop of rule
  | Delay of rule * Sim.Sim_time.span
  | Duplicate of rule

type event = { at : Sim.Sim_time.span; action : action }

val ev : Sim.Sim_time.span -> action -> event

(** What the oracle must additionally assert (safety and liveness are
    always checked). Expectations are one-sided requirements: an
    unexpected-but-harmless view change does not fail a run. *)
type expect = {
  view_change : bool;     (** some honest replica must reach view >= 2 *)
  equivocation : bool;    (** equivocation evidence must be collected *)
  no_equivocation : bool;
      (** no equivocation evidence may exist — the restart-safety
          oracle: a recovering replica must never vote differently for
          a serial it already voted on. (Not the default: torn-tail
          runs legitimately produce counter-reuse evidence.) *)
  state_sync : Net.Node_id.t option;
      (** this replica must catch back up to the honest execution
          frontier (within one watermark window) *)
}

val no_expect : expect

type t = {
  name : string;
  summary : string;
  n : int;
  byzantine : (Net.Node_id.t * Core.Byzantine.t) list;
  leader_generates : bool;
      (** config tweak: let the leader generate datablocks (needed for
          the equivocating-leader scenario) *)
  checkpoint_interval : int option;  (** config tweak *)
  mempool_cap : int option;
      (** config tweak: bound every replica's mempool admission (the
          overload scenarios; [None] = the default unbounded pool) *)
  load : float option;
      (** client request rate override in req/s ([None] = the plane's
          default); how the overload scenarios encode "10x capacity" *)
  torn_tail : (Net.Node_id.t * int) list;
      (** store fault: drop the last [k] appended records of this
          replica's log before any recovery reads it
          ([Core.Store.with_torn_tail]) — models a truncated WAL tail
          surviving an fsync-less crash *)
  events : event list;
  settle : Sim.Sim_time.span;
      (** extra run time after the last event; the liveness bound *)
  expect : expect;
}

val make :
  name:string ->
  summary:string ->
  n:int ->
  ?byzantine:(Net.Node_id.t * Core.Byzantine.t) list ->
  ?leader_generates:bool ->
  ?checkpoint_interval:int ->
  ?mempool_cap:int ->
  ?load:float ->
  ?torn_tail:(Net.Node_id.t * int) list ->
  ?events:event list ->
  ?settle:Sim.Sim_time.span ->
  ?expect:expect ->
  unit ->
  t

val last_event_at : t -> Sim.Sim_time.t
(** Instant of the last scheduled event (0 with no events) — the point
    liveness is measured from: commit progress must resume between here
    and {!duration}. *)

val duration : t -> Sim.Sim_time.span
(** [last_event_at + settle]: total run time. *)

val pp_rule : Format.formatter -> rule -> unit
val pp_action : Format.formatter -> action -> unit
val pp : Format.formatter -> t -> unit
(** One-line [name @ n: summary]. *)
