(** Single-threaded epoll event loop with a timer wheel.

    The socket runtime's engine: file-descriptor readiness callbacks
    plus monotonic timers, dispatched from one thread — replica code
    runs exactly as it does on {!Sim.Engine}, never concurrently with
    itself. The timer API mirrors the engine's schedule/cancel shape
    (same FIFO tie-break for equal instants, via the shared
    {!Sim.Heap}), which is what lets {!Core.Platform} abstract over
    both.

    The clock is nanoseconds since {!create}, as a {!Sim.Sim_time.t}.
    It is derived from the wall clock but clamped to never move
    backwards, so timer order is stable under NTP steps ([Unix] exposes
    no raw monotonic clock; the clamp gives local monotonicity, which
    is all the timer wheel needs).

    The watched fds live in a level-triggered epoll set that changes
    only when an fd's interest does, so a round costs O(ready fds), not
    O(watched fds). Linux only: the wait is [epoll_pwait2] (kernel
    >= 5.11, glibc >= 2.35). *)

type t

type handle
(** A scheduled timer, usable for cancellation. *)

val create : unit -> t
(** A fresh loop with clock at {!Sim.Sim_time.zero}; it holds one fd
    (its epoll set) until {!close}. Also sets SIGPIPE to ignore
    (process-wide): a peer closing mid-write must surface as [EPIPE] on
    that write, not kill the process. *)

val now : t -> Sim.Sim_time.t
(** Current loop time (updated at each dispatch round, and on demand by
    this call). *)

val now_ns : t -> int

val schedule : t -> delay:Sim.Sim_time.span -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] once [delay] has elapsed (negative
    delays clamp to zero). Timers due at the same instant fire in
    schedule order. *)

val schedule_at : t -> at:Sim.Sim_time.t -> (unit -> unit) -> handle

val cancel : t -> handle -> unit
(** Cancels a pending timer; cancelling twice or after firing is a
    no-op. *)

val pending_timers : t -> int

(** {2 File descriptors}

    Callbacks are level-triggered: a readable [fd] fires its callback
    every dispatch round until drained. In a round, every ready reader
    runs before any ready writer, and a callback runs only if its [fd]
    is still watched in that direction when its turn comes — so a
    callback may unwatch and close another fd that is ready in the same
    round. A hang-up or error on [fd] counts as readable and writable.
    Always {!unwatch} an [fd] before closing it: the kernel may drop a
    closed fd from the set behind the loop's back, and a later fd that
    reuses the number would then never be polled. *)

val watch_read : t -> Unix.file_descr -> (unit -> unit) -> unit
val watch_write : t -> Unix.file_descr -> (unit -> unit) -> unit
(** At most one callback per direction per fd (replaced on re-watch).
    Only a change of an fd's interest costs a system call. *)

val unwatch_write : t -> Unix.file_descr -> unit
(** Removes the write callback and keeps the read one. *)

val unwatch : t -> Unix.file_descr -> unit
(** Removes both directions; a no-op for an fd that is not watched. *)

type tick_handle
(** A registered tick hook, usable for deregistration. *)

val on_tick : t -> (unit -> unit) -> tick_handle
(** Registers a hook run after every batch of work — after due timers
    fire and after fd callbacks dispatch — and always before the loop
    can block. The time hooks take counts against the wait: a timer
    that falls due while they run fires without further blocking.
    {!Conn} uses this to flush write queues once per batch, so the many
    small frames one round produces coalesce into one [write(2)] per
    peer instead of one each. *)

val remove_tick : t -> tick_handle -> unit
(** Deregisters a tick hook so the loop no longer runs (or retains) it;
    removing twice is a no-op. A removal made from inside a tick hook
    takes effect at the next round. *)

(** {2 Driving} *)

val run_while : t -> (unit -> bool) -> unit
(** Dispatches timers and fd events while the predicate holds (checked
    once per round) and {!stop} has not been called. Rounds block in
    [epoll_pwait2] for at most the gap to the next timer, measured after
    the tick hooks ran (capped at 50 ms, so the predicate stays
    responsive). Raises [Invalid_argument] on a closed loop. *)

val run_for : t -> span:Sim.Sim_time.span -> unit
(** [run_while] until [span] of loop time has elapsed. *)

val stop : t -> unit
(** Makes the current [run_while] return after the round in progress. *)

val close : t -> unit
(** Releases the loop's epoll fd. Closing twice is a no-op. A closed
    loop keeps its timers and watch tables (so owners can still
    {!unwatch} during their own teardown) but never runs again:
    {!run_while} raises [Invalid_argument]. *)
