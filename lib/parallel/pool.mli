(** Fixed-size domain pool with deterministic combinators.

    A pool owns [domains - 1] worker domains (the calling domain is the
    remaining worker: it participates in every combinator, so a pool of
    size 1 spawns nothing and runs inline). Work items are claimed
    dynamically — an atomic cursor over the input indices — but results
    are always joined {e in input order}, so for a pure per-element
    function the output is bit-for-bit identical for any pool size and
    any scheduling. That determinism contract is what lets the pooled
    stages run the same golden-digest tests at every domain count
    (docs/PARALLEL.md).

    Combinators are not reentrant: a call from inside a task (or while
    another combinator runs on the same pool) falls back to inline
    sequential execution rather than deadlocking.

    If a task raises, the remaining items still run; the exception
    raised to the caller is the one from the {e lowest} input index
    (again for determinism). Tasks are expected to be pure per element —
    side effects of items after a sequential-raise point may or may not
    have happened. *)

type t

val create : domains:int -> t
(** Spawn a pool running on [domains] domains ([domains - 1] workers
    plus the caller). Raises [Invalid_argument] unless
    [1 <= domains <= 128]. *)

val domains : t -> int
(** The size the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f a] is [Array.map f a], elements evaluated in parallel,
    result in input order. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Further combinator calls run
    inline; idempotent. Pools obtained from {!Sdn_parallel.pool} are
    shut down automatically at exit. *)
