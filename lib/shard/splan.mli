(** Sharded probe planning: the two-level cover (docs/SHARD.md).

    The network is partitioned into regions ({!Partition}); each region
    gets its own rule graph and minimum legal path cover, built
    independently (and, with a pool, in parallel — one task per region,
    joined in region order). Cross-region forwarding is then recovered
    by {e stitching}: a chain whose tail forwards into another region
    is greedily composed with a chain starting at that switch whenever
    the forward fold through the composition stays non-empty, so one
    probe tests the whole cross-border path. Headers are assigned over
    the composed cover ([Sat_unique]) and lowered to ordinary
    {!Sdnprobe.Probe.t} values — the detection loop downstream is
    unchanged.

    Every step is deterministic (BFS partition, region-order joins,
    plan-order greedy stitching, lex-least unique headers), so a sharded
    plan is byte-identical at any domain count — same contract as the
    flat pipeline.

    What sharding trades away: MLPC minimality is per-region, so the
    composed cover can use more probes than the flat minimum, and a
    cross-region path is tested only if the greedy stitch finds it.
    Every testable rule is still covered — coverage comes from the
    per-region covers, which see identical input/output spaces to the
    flat graph ({!Openflow.Network.sub}). *)

type stats = {
  regions : int;
  cut_edges : int;  (** topology links between regions *)
  border_rules : int;  (** rules forwarding across a region border *)
  chains : int;  (** per-region cover paths before stitching *)
  stitched : int;  (** cross-region compositions performed *)
  inter_edges : int;  (** inter-shard graph edges (before legality) *)
  region_vertices : int array;  (** rule-graph vertices per region *)
  region_edges : int array;  (** rule-graph edges per region *)
}

type t = {
  network : Openflow.Network.t;
  partition : Partition.t;
  probes : Sdnprobe.Probe.t list;
  untestable : int list;  (** entry ids with empty input space *)
  stats : stats;
  generation_s : float;
}

val create :
  ?pool:Sdn_parallel.Pool.t ->
  ?target:int ->
  ?assign_headers:bool ->
  Openflow.Network.t ->
  t
(** Build a sharded plan ([target] is the region size,
    {!Partition.default_target} by default). Raises
    {!Rulegraph.Rule_graph.Cyclic_policy} if some region's policy
    loops.

    [~assign_headers:false] stops after the structural build —
    partition, per-region graphs and covers, stitching — leaving
    [probes] empty but [stats] complete (what [shard.build] benches). *)

val size : t -> int
(** Number of probes. *)

val region_of : t -> int -> int
(** Region of a switch — pass to [Runner.execute_probes ?region_of]
    for hierarchical slicing. *)

val stats_to_json : t -> Sdn_util.Json.t
