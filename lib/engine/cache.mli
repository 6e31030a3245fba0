(** A domain-safe verdict cache with compute-once semantics.

    Keys are [(digest, tag, projection)]: the MD5 digest of the program,
    a caller-built configuration fingerprint (mode, fuel, policy, ...),
    and the projection of the input the verdict may legally depend on —
    the whole input vector for exact caching, or the policy image [I(a)]
    for sound-mechanism memoization (see {!Memo}).

    {b Compute-once}: the first requester of a key computes the verdict;
    concurrent requesters of the same key block until it lands and then
    share it. This is what makes the hit/miss counters deterministic:
    misses always equal the number of distinct keys requested and hits the
    remaining lookups, independent of how domains are scheduled — so the
    counters can appear in reports that promise byte-identical output
    across [--jobs].

    {b Unbounded}: its callers ({!Memo}, the sweeps, the certifier and
    [Analyze]) run over finite input spaces, so the cache never evicts;
    it holds one verdict per distinct key requested. *)

type t

type key = {
  digest : string;  (** MD5 of the program ({!Secpol_journal.Runner.graph_hash}) *)
  tag : string;  (** configuration fingerprint; same tag, same mechanism *)
  projection : Secpol_core.Value.t;
      (** what the cached verdict is a function of *)
}

val create : unit -> t

val find_or_compute :
  t -> key -> (unit -> Secpol_core.Mechanism.reply) -> Secpol_core.Mechanism.reply
(** [find_or_compute c k f] returns the cached reply for [k], computing it
    with [f] (outside the cache lock) on first request. If [f] raises, the
    key is released, every waiter is woken, and the exception propagates —
    the next requester retries the computation. *)

val hits : t -> int

val misses : t -> int
(** Completed first-computations. *)

val size : t -> int
