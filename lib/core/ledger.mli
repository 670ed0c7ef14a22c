(** The log of confirmed BFTblocks (Fig. 4's log manager).

    Confirmed blocks are stored by serial number; execution advances a
    contiguous prefix pointer (only sequential serials may execute,
    §4.3's "when to respond the client"). A checkpoint-driven fast
    forward skips serials whose execution state was learned from a
    stable checkpoint during state transfer. *)

type t

val create : unit -> t

val confirm : t -> Bftblock.t -> unit
(** Stores a confirmed block at its serial number. Re-confirming the same
    serial is a no-op (Lemma 5.2 guarantees equal content). *)

val is_confirmed : t -> int -> bool
val get : t -> int -> Bftblock.t option

val executed_up_to : t -> int
(** Highest serial executed; 0 before anything executes (serials start
    at 1). *)

val next_executable : t -> Bftblock.t option
(** The block at [executed_up_to + 1], when confirmed. *)

val mark_executed : t -> int -> unit
(** Advances the execution pointer. Requires [sn = executed_up_to + 1]. *)

val fast_forward : t -> int -> unit
(** State transfer: jumps the execution pointer to [sn] (no-op when
    already past). *)

val confirmed_count : t -> int
(** Number of confirmed serials ever stored. *)

val highest_confirmed : t -> int
(** Highest confirmed serial; 0 when none. *)

val executed_range : t -> from_:int -> (int * Bftblock.t) list
(** Confirmed blocks with serials in [(from_, executed_up_to]], for
    safety cross-checks in tests. *)

val blocks : t -> Bftblock.t list
(** Every retained confirmed block, in serial order (snapshot
    building — blocks below a checkpoint are already pruned). *)

val prune_below : t -> int -> unit
(** Forgets block bodies with serials <= the argument (post-checkpoint
    garbage collection); the execution pointer and counters survive. *)

val agree : t -> t -> bool
(** Position-wise agreement: at every serial both ledgers executed and
    still hold, the blocks have equal content. Serials one ledger has
    pruned below a checkpoint are skipped. *)
