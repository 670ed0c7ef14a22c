(** Client-side confirmation accounting, shared by every runner.

    A request is confirmed when f+1 replicas have executed it: a client
    accepts a response once f+1 replicas sent the same one (§4.1). The
    tally makes that decision from the replicas' per-serial execution (or
    commit) reports and owns everything measured at that instant: the
    confirmed-request count, the number of serials that reached f+1, the
    confirm and goodput meters and the confirm-latency histogram, and, with
    a registry attached, the [leopard_confirm_latency_ns] and
    [leopard_confirmed_requests_total] instruments.

    A batch counts once, whichever copy of it a confirmed serial carries:
    a timeout re-send ({!Request.resend_of}), a fan-out copy, or a copy
    decoded from the wire, all share the batch id. *)

type t

val create : f_plus_1:int -> ?obs:Obs.Registry.t -> unit -> t

val executed : t -> sn:int -> bool
(** Records one replica's report that serial [sn] executed. True exactly
    once per serial, at its [f_plus_1]-th report. A report for a serial
    at or below the {!prune_below} watermark returns false and starts no
    new count: a lagging replica executing a settled serial must not
    confirm it again. *)

val confirm : t -> at:Sim.Sim_time.t -> Request.t -> bool
(** Counts a batch of a serial that just reached f+1, confirmed at [at].
    True when the batch is new; false for any later copy of it. *)

val prune_below : t -> int -> unit
(** Drops the per-serial counts at or below the low watermark [lw] once a
    checkpoint has settled them. Lower or repeated watermarks are
    no-ops. *)

val pruned_below : t -> int
(** The highest watermark passed to {!prune_below}; 0 before any. *)

val close : t -> unit
(** Stops counting and drops both tables; the counts, meters and
    histogram stay readable. For a finished run. *)

val confirmed : t -> int
(** Requests confirmed. *)

val serials : t -> int
(** Serials that reached f+1 reports. *)

val latency : t -> Stats.Histogram.t
(** Submit-to-confirm latency, one sample per confirmed batch. *)

val throughput : t -> from_:Sim.Sim_time.t -> until:Sim.Sim_time.t -> float
(** Confirmed requests per second over the window. *)

val goodput_bps : t -> from_:Sim.Sim_time.t -> until:Sim.Sim_time.t -> float
(** Confirmed payload bits per second over the window. *)
