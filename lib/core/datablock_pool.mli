(** The datablock pool (Fig. 4): verified datablocks awaiting linkage.

    Indexed by hash for BFTblock link resolution and by (creator,
    counter) for the duplicate/equivocation check of Algorithm 1 line 18.
    The leader additionally tracks which datablocks are not yet linked by
    any proposed BFTblock ("pending"). *)

type t

type verdict =
  | Accepted
  | Duplicate              (** same (creator, counter, hash) seen before *)
  | Equivocation of Datablock.t
      (** a *different* datablock with the same (creator, counter) was
          already received — the payload is the earlier one, usable as
          punishable evidence (§4.3 remark). The new variant is stored
          (the leader's choice of variant must remain resolvable) but is
          never offered to this replica's proposal path. *)

val create : unit -> t

val add : t -> Datablock.t -> verdict
(** Files a (signature-verified) datablock. *)

val find : t -> Crypto.Hash.t -> Datablock.t option

val mem : t -> Crypto.Hash.t -> bool

val missing_links : t -> Crypto.Hash.t list -> Crypto.Hash.t list
(** The links not present in the pool (empty = BFTblock fully backed,
    Algorithm 2 line 16). *)

val has_all_links : t -> Crypto.Hash.t list -> bool
(** [missing_links t links = []] without allocating the missing list.
    The reference that {!cursor_complete} is tested against. *)

type cursor
(** An incremental {!has_all_links} probe over one fixed link list, for a
    proposal that waits on its datablocks. It remembers the suffix of the
    links not yet seen in the pool and the pool's prune generation. *)

val cursor : t -> Crypto.Hash.t list -> cursor
(** A fresh cursor over [links]. *)

val cursor_complete : t -> cursor -> bool
(** Equals [has_all_links t links] for the cursor's [links], at every
    call. Between prunes the pool only grows, so the cursor advances past
    links already seen and each link is tested about once over the wait;
    a {!prune} since the last call resets it to the whole list. *)

val pending : t -> int
(** Number of unlinked datablocks (leader's proposal trigger). *)

val take_pending : t -> max:int -> Datablock.t list
(** Removes up to [max] unlinked datablocks, oldest first, marking them
    linked. *)

val mark_linked : t -> Crypto.Hash.t -> unit
(** Marks a datablock linked (followers learn this from proposals, so
    after a view change they do not expect it re-linked). *)

val relink_pending :
  t -> keep_linked:Crypto.Hash.Set.t -> also_executed:(Crypto.Hash.t -> bool) -> unit
(** View-change recovery at the new leader: datablocks that were linked
    by proposals which never survived into the new view become pending
    again, so their requests are re-proposed instead of lost. Keeps
    linked those in [keep_linked] (redo and still-confirmed blocks) and
    those for which [also_executed] holds. *)

val fold : t -> init:'a -> f:('a -> Datablock.t -> linked:bool -> 'a) -> 'a
(** Folds over every stored datablock with its linked flag, in
    unspecified order (snapshot building; sort by (creator, counter) for
    a deterministic serialization). *)

val equivocations : t -> (Net.Node_id.t * Datablock.t * Datablock.t) list
(** Collected equivocation evidence: (creator, first, second). *)

val size : t -> int
(** Stored datablocks. *)

val prune : t -> keep:(Datablock.t -> bool) -> unit
(** Garbage collection after a checkpoint. Starts a new generation, so
    every {!cursor} re-checks its links from the head.

    A pruned datablock is forgotten entirely, its (creator, counter) slot
    included, and the replica keeps no executed-link record below the
    watermark either: a late re-delivery of it after the prune is filed
    again as {!Accepted} and counts as pending at a leader. *)
