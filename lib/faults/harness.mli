(** Run a chaos scenario on either plane.

    One harness over {!Core.Driver}: the same injector, the same event
    dispatch (crash and revive through the plane's fail-stop, restart
    through its process restart, link faults through the {!Injector}) and
    the same oracle inputs, read from the checks {!Core.Driver} keeps. What differs
    per plane is only the host:

    - {b Sim}: a [Core.Runner] cluster with the injector as the
      network's fault hook. The run is fully deterministic — workload,
      network, replicas and injector all derive from the one seed — and
      the returned {!Oracle.outcome.trace} (the shared protocol trace
      with [chaos] entries at their fire instants) is byte-identical for
      the same [(seed, scenario)]. It always runs the scenario's full
      duration.
    - {b Tcp}: a loopback [Transport.Cluster] with the injector as every
      node's outbound {!Transport.Conn} filter; event times are
      wall-clock offsets, so runs are not byte-for-byte reproducible. The
      run ends early once the oracle's obligations are met (progress
      after heal, any expected view change, equivocation or state sync),
      but never before heal + 1 s, then drains with load off for up to
      5 s until the honest up replicas converge. *)

type plane =
  | Sim
  | Tcp of {
      data_root : string option;
          (** per-node WAL directories under
              [<data_root>/<scenario-name>/]; a failing run keeps them as
              debugging artifacts, a passing run deletes them. [None]: a
              temp directory, always removed. *)
      metrics_out : string option;
          (** write the cluster's metrics exposition to this file
              (periodic + final; see [Transport.Cluster.create]) *)
    }

val run : ?seed:int64 -> ?load:float -> plane -> Scenario.t -> Oracle.outcome
(** Builds the plane's cluster sized by the scenario, installs the
    injector, schedules the scenario's events, drives the run and
    evaluates the oracle. Client re-sends are always on (1 s on the sim,
    500 ms on TCP): they arm the view-change watchdog. [load] defaults to
    the scenario's [load] override when present; otherwise by scale on
    the sim (400 req/s at n < 16, 800 below 64, 1200 from 64) and 800
    req/s on TCP. *)
