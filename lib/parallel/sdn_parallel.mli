(** Deterministic multicore support (docs/PARALLEL.md).

    A {!Pool} is a fixed-size domain pool whose combinators join
    results in input order, so the pipeline's output is bit-for-bit
    identical for any domain count. This module adds the process-wide
    default: the degree of parallelism the pooled stages (detection
    round sends, sharded region builds, verification) use when no
    explicit pool is passed. *)

module Pool = Pool
module Ownership = Ownership

val env_domains : unit -> int
(** Value of [SDNPROBE_DOMAINS] clamped to [\[1, 128\]]; 1 when unset
    or malformed. *)

val default_domains : unit -> int
(** Current default degree of parallelism: the last
    {!set_default_domains} if any, else {!env_domains}. *)

val set_default_domains : int -> unit
(** Override the default for this process (used by tests and the CLI
    [--domains] flag). Raises [Invalid_argument] outside [\[1, 128\]]. *)

val pool : domains:int -> Pool.t
(** The process-wide cached pool of the given size (created on first
    use, shut down automatically at exit). *)

val default_pool : unit -> Pool.t
(** [pool ~domains:(default_domains ())]. *)
