(** Test-packet header assignment (§V-B step 3, §V-C, §VI).

    Each cover path gets one concrete header from its start space. Three
    policies:

    - [Deterministic]: the canonical first member of the space —
      SDNProbe's static choice (its predictability is exactly what
      targeting faults exploit, reproduced in the evaluation);
    - [Sat_unique]: the paper's §VI unique headers — pairwise distinct
      across paths, so the exact-match test flow entries can only fire
      on test packets. The paper finds them with MiniSat; here each
      path takes the lexicographically least free member of its space,
      and the SAT solver certifies that answer afterwards
      ([Sdnprobe.Certify]'s [sat] section);
    - [Random]: Randomized SDNProbe's per-round uniform draw from the
      start space (still pairwise distinct, by rejection). *)

type policy =
  | Deterministic
  | Sat_unique
  | Random of Sdn_util.Prng.t
  | Traffic_weighted of Traffic.t * Sdn_util.Prng.t
      (** §V-C's sFlow option: draw from the observed traffic inside the
          path's header space, so probes blend in with real flows
          (raising the odds of tripping targeting faults aimed at live
          traffic); falls back to a uniform draw on paths without
          observed traffic. *)

type memo
(** Transcript cache for repeated [assign] calls over evolving covers
    (the delta planning path). Records every path's key, start space and
    chosen header in path order; the next call replays the choices while
    its cover's prefix matches (same keys, same space representations)
    and assigns normally from the first divergence, so a warm call
    returns exactly what a cold one would. Only consulted for the
    [Deterministic] and [Sat_unique] policies — randomized draws are
    never cached.

    The [key] argument of {!assign} names a path for the memo (default:
    its [rules] vertex list). Vertex indices shift when entries are
    added or removed, so callers reusing a memo across graph updates
    must key by stable entry ids ([Pipeline] does). *)

val memo_create : unit -> memo

val assign :
  ?memo:memo ->
  ?key:(Cover.path -> int list) ->
  policy ->
  Cover.t ->
  (Cover.path * Hspace.Header.t) list
(** One header per path. Paths whose start space is empty are skipped
    (cannot happen for covers produced by the solvers — their paths are
    legal). With [Sat_unique] and [Random], headers are pairwise
    distinct whenever the spaces admit it; if a space is exhausted the
    path reuses a duplicate header rather than being dropped.

    One pass in path order. A [Sat_unique] path takes the
    lexicographically least member (over the free bits, in
    [Hspace.Cube.nth_member] order) of the first cube of its space that
    still has a member no earlier path took; when every cube is
    exhausted it reuses the space's first member. The answer depends
    only on the {e set} of earlier headers, not on their order.
    Randomized policies draw from per-path streams seeded by
    [(master draw, path index)]. *)
