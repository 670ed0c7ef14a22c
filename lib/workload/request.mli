(** Client requests, represented as batches.

    Clients submit requests in small batches (one wire message each); a
    batch is the unit the simulator tracks end-to-end. All requests of a
    batch share a birth instant and payload size, so per-request latency
    and throughput are recovered exactly from batch granularity while
    memory stays bounded at hundreds of replicas × 10^5 requests/s.

    The confirmation flag is a ref shared between a batch and its re-sent
    copies ({!resend_of}), so confirming any copy confirms the logical
    requests. Measurement counts each batch once by its id ({!Tally}),
    whichever copy (fan-out [s > 1], timeout re-send §4.3, decoded) a
    confirmed serial carries. *)

type t = {
  id : int;                 (** globally unique batch id *)
  count : int;              (** number of requests in the batch *)
  size_each : int;          (** payload bytes per request *)
  born : Sim.Sim_time.t;    (** client submission instant *)
  resend : bool;            (** re-sent after a timeout (view-change §4.3) *)
  confirmed : bool ref;     (** shared with re-sent copies *)
}

val make :
  id:int -> count:int -> size_each:int -> born:Sim.Sim_time.t -> ?resend:bool -> unit -> t

val resend_of : t -> t
(** A re-sent copy: same identity, birth and confirmation ref, with the
    [resend] tag set (receiving replicas watch tagged requests and vote
    for a view change if they time out, §4.3). *)

val is_confirmed : t -> bool
val mark_confirmed : t -> unit

val payload_bytes : t -> int
(** Total request payload carried by the batch. *)

val wire_bytes : t -> int
(** Payload plus the per-batch framing overhead. *)

val encode : t -> string
(** Deterministic encoding used for hashing into datablock digests. *)

val hash : t -> Crypto.Hash.t
