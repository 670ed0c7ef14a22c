(** Shamir secret sharing over {!Field}.

    A degree-[t] polynomial [P] with [P(0) = secret] is sampled; the share
    of party [i] (1-based) is [P(i)]. Any [t + 1] shares reconstruct the
    secret by Lagrange interpolation at 0; [t] or fewer reveal nothing.
    This is the quorum-intersection mechanism under the threshold signature
    scheme of §3.1: aggregation genuinely requires [t + 1] shares. *)

type share = { index : int; value : Field.t }
(** Party [index]'s evaluation of the sharing polynomial. *)

val deal : Sim.Rng.t -> secret:Field.t -> threshold:int -> parties:int -> share array
(** [deal rng ~secret ~threshold ~parties] returns [parties] shares such
    that any [threshold + 1] of them reconstruct [secret].
    Requires [0 <= threshold < parties]. *)

val reconstruct : share list -> Field.t
(** Lagrange interpolation at 0. The caller must supply at least
    [threshold + 1] shares with pairwise distinct indices; with fewer (or
    corrupted) shares the result is an unrelated field element, matching
    the scheme's robustness property (garbage in, garbage out — detected
    by verifying the aggregate, not by interpolation itself).
    Requires a non-empty list with pairwise distinct indices. Costs one
    field inversion and O(k{^2}) multiplications for [k] shares. *)

val lagrange_coefficient : at:Field.t -> indices:int list -> int -> Field.t
(** [lagrange_coefficient ~at ~indices i] is the basis coefficient of
    party [i] when interpolating at point [at] over [indices], computed
    pairwise (k - 1 inversions). The reference that {!reconstruct} is
    property-tested against. *)
