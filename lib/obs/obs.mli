(** Unified metrics layer: a domain-safe, allocation-disciplined registry
    of monotonic counters, gauges and latency histograms, with a
    Prometheus-style text exposition format.

    Every subsystem (client tally, consensus, transport, verify pool,
    store) registers its instruments against a {!Registry.t} at
    construction time and keeps the returned handles; the hot paths then
    touch only those handles, and the subsystem reads its own counts
    back from them — one record per measurement, nothing copied at
    scrape time. The discipline:

    - a {!Counter.incr} / {!Gauge.set} is one [Atomic] operation — a few
      nanoseconds, zero minor words (the micro bench gates this);
    - a {!Histogram.record} updates a {e per-domain}
      {!Stats.Histogram.t} shard (~2% geometric buckets, the same
      histogram every report reads), so worker domains (the verify pool)
      record without contending with the event loop; shards are merged
      only at scrape time; zero minor words, gated like the counter;
    - scraping ({!Registry.expose}) is read-only and idempotent —
      instruments are cumulative, the scraper never resets them.

    The registry itself is mutex-protected and may be shared across
    domains; instrument registration is construction-time work and never
    sits on a hot path. *)

module Counter : sig
  type t

  val incr : t -> unit
  (** One atomic increment: the hot-path operation. *)

  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val record : t -> int -> unit
  (** [record h v] adds one nanosecond observation to the calling
      domain's shard ({!Stats.Histogram.record}). *)

  val count : t -> int
  (** Observations across all shards. *)

  val sum : t -> int

  val snapshot : t -> Stats.Histogram.t
  (** A fresh merge of every shard: the quantiles, mean, min and max a
      single-domain {!Stats.Histogram.t} fed the same values reports. *)
end

module Registry : sig
  type t

  val create : unit -> t

  (** Instrument constructors are idempotent: asking twice for the same
      name and label set returns the same instrument (so a recovered
      replica re-attaches to its counters instead of shadowing them).
      Asking for an existing name+labels under a different metric kind
      raises [Invalid_argument]. Labels are sorted internally; [help] is
      kept from the first registration. Subsystems read their counts back
      from these instruments, so a registry serves one run: a second
      cluster registered on it would keep counting on the first one's
      series. *)

  val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
  val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

  val histogram :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Histogram.t

  val on_collect : t -> (unit -> unit) -> unit
  (** Registers a hook run at the start of every {!expose}: the place to
      refresh gauges that sample state (queue depths, live connections).
      Counters are never written here — they are bumped where the event
      happens. Hooks run in registration order and must not register new
      instruments. *)

  val expose : t -> string
  (** The full registry in Prometheus text exposition format:
      [# TYPE name kind] per family, then one
      [name{label="v",...} value] line per instrument, families and
      label sets in sorted order — deterministic, so two scrapes of an
      idle registry are byte-identical. Histograms render cumulative
      [_bucket{le="..."}] lines, one per geometric bucket from the lowest
      to the highest occupied ([le] = the bucket's largest nanosecond
      value; the open-ended top bucket only under [+Inf]), then
      [le="+Inf"], [_sum] and [_count]. *)

  val dump_file : t -> string -> unit
  (** Writes {!expose} to a file atomically (temp file + rename), so a
      reader never observes a half-written dump. *)
end
