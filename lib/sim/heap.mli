(** Binary min-heap keyed by [(int, int)] pairs.

    The event queue of the simulation engine: the primary key is the firing
    instant, the secondary key a strictly increasing sequence number so that
    events scheduled for the same instant fire in schedule order (FIFO),
    which keeps runs deterministic.

    The layout is structure-of-arrays: int keys, sequence numbers and
    values live in parallel flat arrays, so insertion allocates nothing
    beyond amortized array growth and comparisons are immediate-int
    operations. Popped slots are cleared, so the heap holds no reference
    to values it no longer contains.

    The int64 entry points ({!add}, {!pop_min}, {!peek_min}) are thin
    wrappers over the int ones: every key must fit an OCaml int. *)

type 'a t

val create : unit -> 'a t
(** An empty heap. *)

val length : 'a t -> int
(** Number of stored elements. *)

val is_empty : 'a t -> bool

val add : 'a t -> key:int64 -> seq:int -> 'a -> unit
(** [add h ~key ~seq v] inserts [v] with priority [(key, seq)].
    @raise Invalid_argument if [key] does not fit an int. *)

val pop_min : 'a t -> (int64 * int * 'a) option
(** Removes and returns the minimum element, or [None] when empty. *)

val peek_min : 'a t -> (int64 * int * 'a) option
(** Returns the minimum element without removing it. *)

val clear : 'a t -> unit
(** Removes all elements. *)

(** {2 Unboxed fast path}

    For callers whose keys are ints (nanosecond timestamps): the same
    ordering as the int64 API, with no boxing and no option or tuple
    allocation. The peek/pop functions below require a non-empty
    heap (unchecked); guard with {!is_empty} or {!length}. *)

val add_ns : 'a t -> key_ns:int -> seq:int -> 'a -> unit
(** [add h ~key:(Int64.of_int key_ns) ~seq v], allocation-free. *)

val peek_key_ns : 'a t -> int
(** Root key. *)

val peek_seq : 'a t -> int
(** Root sequence number. *)

val pop_value : 'a t -> 'a
(** Removes the root and returns its value alone. *)
