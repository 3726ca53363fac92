(** Plan certification: re-establish each pipeline answer with an
    independent checker (see [lib/cert] and docs/CERTIFY.md).

    Four sections: [sat] (the lex-least unique headers rebuilt by
    proof-logged SAT bit-fixing — models checked against every clause,
    refutations DRUP-checked, headers compared bit-for-bit with the
    plan's),
    [matching] (König-certified maximum matching of the MLPC bipartite
    graph; [|paths| = n_testable − |M|] certifies the cover minimum via
    Theorem 1), [cover] (cache-free replay of every probe's path
    witness plus a recomputed coverage bitmap) and [yen] (sampled
    k-shortest-path queries re-checked against an independent
    Bellman–Ford). *)

type check = { name : string; ok : bool; detail : string }
type section = { title : string; checks : check list }

type report = {
  sections : section list;
  patch_events : Report.patch_event list;
      (** incremental re-plans this certificate covers ([run_patch]);
          empty for batch certification *)
}

val run : ?yen_pairs:int -> ?seed:int -> Plan.t -> report
(** Certify a generated plan. [yen_pairs] (default 8) source/destination
    samples are drawn with [seed] (default 7) for the Yen section. *)

val sat_headers : Hspace.Hs.t list -> Hspace.Header.t list -> section
(** The [sat] section on its own: rebuild the [Sat_unique] header of
    each start space in order (the lex-least free member, by
    proof-logged SAT bit-fixing) and compare with the given headers.
    {!run} applies it to a Static plan's cover; plans lowered outside
    {!Plan.t} (the sharded planner) pass their paths' start spaces. *)

val run_patch :
  ?yen_pairs:int ->
  ?seed:int ->
  ?event:Report.patch_event ->
  before:Probe.t list ->
  patch:Plan.patch ->
  Plan.t ->
  report
(** Certify one incremental re-plan: the full {!run} sections over the
    post-edit plan, preceded by a [patch] section checking the
    {!Plan.patch} as an accounting identity between the two probe lists
    (removed/rewritten-from probes all in the pre-edit plan, added/
    rewritten-to probes all in the post-edit plan, the untouched
    remainder identical on both sides as a (path, header) multiset,
    post-edit ids canonical). The pre-edit plan's own witnesses are
    {e not} replayed — its network has been mutated in place — which is
    why the patch check is pure bookkeeping with the certifier's own
    multiset arithmetic. [event] (if given) is recorded as the
    report's single patch event. *)

val ok_report : report -> bool
(** All checks of all sections hold. *)

val schema_version : int
(** Current version: 2 (v1 plus the [patch_events] array). *)

val to_json : report -> Sdn_util.Json.t
(** Machine-readable certificate report. *)

val of_json : Sdn_util.Json.t -> (report, string) result
(** Parse a certificate report back. Version 1 documents (no
    [patch_events]) are accepted and parse with [patch_events = \[\]].
    The derived [certified] / per-section [ok] fields are recomputed,
    not trusted. *)

val pp : Format.formatter -> report -> unit
