module Network = Openflow.Network
module FE = Openflow.Flow_entry
module RG = Rulegraph.Rule_graph
module Hs = Hspace.Hs
module Cover = Mlpc.Cover
module Probe = Sdnprobe.Probe

(* Cumulative totals across every sharded plan built in the process,
   consistent with the registry's monotonic-counter semantics (the
   per-plan figures live in [stats]). *)
let c_regions = Metrics.Counter.create "shard.regions"

let c_cut_edges = Metrics.Counter.create "shard.cut_edges"

let c_border_rules = Metrics.Counter.create "shard.border_rules"

let c_chains = Metrics.Counter.create "shard.chains"

let c_stitched = Metrics.Counter.create "shard.stitched"

type stats = {
  regions : int;
  cut_edges : int;
  border_rules : int;
  chains : int;
  stitched : int;
  inter_edges : int;
  region_vertices : int array;
  region_edges : int array;
}

type t = {
  network : Network.t;
  partition : Partition.t;
  probes : Probe.t list;
  untestable : int list;
  stats : stats;
  generation_s : float;
}

(* One per-region cover path, lifted to the global plan. [vertices] are
   the region rule graph's base vertices (the path's expansion), kept
   alongside the graph so the stitcher reads input spaces and set
   fields straight out of the graph's immutable arrays — the shared
   space caches, owned by the domain that built the graph, are never
   touched from the stitching domain (SDNPROBE_POOL_CHECK). *)
type chain = {
  region : int;
  rg : RG.t;
  vertices : int list;
  entries : int list; (* entry ids, same order as [vertices] *)
  head_switch : int;
  tail_next : int option; (* switch the tail rule forwards to *)
  start_space : Hs.t;
  tail_space : Hs.t; (* Definition 1's O_n at the tail *)
}

(* Forward fold of a whole chain from [space]: the packet reaches the
   chain's head switch and is processed from table 0, and every chain
   head is a table-0 rule (injection_plan guarantees covered paths
   start there), so a non-empty fold means headers in it traverse
   exactly the chain's rules. Same op shape as the rule graph's own
   [forward_space] step. *)
let append_fold space (c : chain) =
  List.fold_left
    (fun hs v ->
      let e = RG.vertex_entry c.rg v in
      Hs.apply_set_field ~set:e.FE.set_field (Hs.inter hs (RG.input c.rg v)))
    space c.vertices

let border_rules net part =
  List.fold_left
    (fun acc (e : FE.t) ->
      match Network.next_switch net e with
      | Some sw when Partition.region_of part sw <> Partition.region_of part e.switch
        ->
          acc + 1
      | _ -> acc)
    0 (Network.all_entries net)

let create ?pool ?target ?(assign_headers = true) net =
  let t0 = Sdn_util.Mono.now_s () in
  let part = Partition.make ?target (Network.topology net) in
  let n_regions = Partition.n_regions part in
  (* Fan out one task per region: region view, rule graph, MLPC cover,
     and the tail spaces — all on the worker domain that owns the
     graph's caches. No pool is passed down: combinators are not
     reentrant, and the per-region instances are small by
     construction. *)
  let build r =
    let sub = Network.sub net (Partition.switches part r) in
    let rg = RG.build sub in
    let cover = Mlpc.Legal_matching.solve rg in
    let chains =
      List.map
        (fun (p : Cover.path) ->
          let entries =
            List.map (fun v -> (RG.vertex_entry rg v).FE.id) p.Cover.rules
          in
          let head = RG.vertex_entry rg (List.hd p.Cover.rules) in
          let last =
            RG.vertex_entry rg (List.nth p.Cover.rules (List.length p.Cover.rules - 1))
          in
          {
            region = r;
            rg;
            vertices = p.Cover.rules;
            entries;
            head_switch = head.FE.switch;
            tail_next = Network.next_switch net last;
            start_space = p.Cover.start_space;
            tail_space = RG.forward_space rg p.Cover.rules;
          })
        cover.Cover.paths
    in
    let untestable =
      List.map (fun v -> (RG.vertex_entry rg v).FE.id) cover.Cover.untestable
    in
    (rg, chains, untestable)
  in
  let indices = Array.init n_regions Fun.id in
  let results =
    match pool with
    | Some pool -> Sdn_parallel.Pool.map pool build indices
    | None -> Array.map build indices
  in
  let chains =
    Array.of_list (List.concat_map (fun (_, cs, _) -> cs) (Array.to_list results))
  in
  let untestable = List.concat_map (fun (_, _, u) -> u) (Array.to_list results) in
  let n = Array.length chains in
  (* Chain indices by head switch, ascending (plan order). Lookups
     only — never iterated. *)
  let heads : (int, int list) Hashtbl.t = Hashtbl.create (max 16 n) in
  for i = n - 1 downto 0 do
    let sw = chains.(i).head_switch in
    let tl = Option.value ~default:[] (Hashtbl.find_opt heads sw) in
    Hashtbl.replace heads sw (i :: tl)
  done;
  (* The inter-shard graph: chain -> chains whose head switch is the
     tail's cross-region forwarding target. Candidate order is plan
     order, so the greedy stitch below is deterministic. *)
  let inter =
    Sdngraph.Csr.of_successors ~n (fun i ->
        match chains.(i).tail_next with
        | Some sw when Partition.region_of part sw <> chains.(i).region ->
            Option.value ~default:[] (Hashtbl.find_opt heads sw)
        | _ -> [])
  in
  (* Two-level cover, level 2: greedily compose chains across region
     borders. Legal matching already spliced every profitable
     same-region pair, so only cross-region tails are extended; a
     candidate is accepted iff the forward fold through it stays
     non-empty (then one probe tests the whole composition). First
     unconsumed legal candidate wins — deterministic, single pass. *)
  let consumed = Array.make n false in
  let stitched = ref 0 in
  let composed = ref [] in
  for i = 0 to n - 1 do
    if not consumed.(i) then begin
      consumed.(i) <- true;
      let parts = ref [ i ] in
      let space = ref chains.(i).tail_space in
      let cur = ref i in
      let extending = ref true in
      while !extending do
        let next =
          Sdngraph.Csr.fold_succ
            (fun acc j ->
              match acc with
              | Some _ -> acc
              | None ->
                  if consumed.(j) then None
                  else
                    let space' = append_fold !space chains.(j) in
                    if Hs.is_empty space' then None else Some (j, space'))
            None inter !cur
        in
        match next with
        | Some (j, space') ->
            consumed.(j) <- true;
            incr stitched;
            parts := j :: !parts;
            space := space';
            cur := j
        | None -> extending := false
      done;
      composed := List.rev !parts :: !composed
    end
  done;
  let composed = List.rev !composed in
  (* Lower compositions to one synthetic cover path each. Paths carry
     entry ids (stable across the per-region graphs) rather than
     vertices of any one graph; header assignment only reads the start
     space, and probe construction works from entry ids. *)
  let len = Network.header_len net in
  let to_path parts =
    match parts with
    | [ i ] ->
        let c = chains.(i) in
        { Cover.vertices = c.entries; rules = c.entries; start_space = c.start_space }
    | _ ->
        let steps =
          List.concat_map
            (fun i ->
              let c = chains.(i) in
              List.map (fun v -> (c.rg, v)) c.vertices)
            parts
        in
        let start_space =
          (* Same backward preimage as the rule graph's [start_space],
             across the graph boundary. *)
          List.fold_right
            (fun (rg, v) after ->
              let e = RG.vertex_entry rg v in
              Hs.inter (RG.input rg v) (Hs.inverse_set_field ~set:e.FE.set_field after))
            steps (Hs.full len)
        in
        let entries = List.concat_map (fun i -> chains.(i).entries) parts in
        { Cover.vertices = entries; rules = entries; start_space }
  in
  let cover = { Cover.paths = List.map to_path composed; untestable = [] } in
  let probes =
    if not assign_headers then []
    else
      let assigned = Mlpc.Headers.assign Mlpc.Headers.Sat_unique cover in
      List.mapi
        (fun i ((p : Cover.path), header) ->
          Probe.make net ~id:i ~rules:p.Cover.rules ~header)
        assigned
  in
  let borders = border_rules net part in
  let stats =
    {
      regions = n_regions;
      cut_edges = Partition.cut_edges part;
      border_rules = borders;
      chains = n;
      stitched = !stitched;
      inter_edges = Sdngraph.Csr.n_edges inter;
      region_vertices =
        Array.map (fun (rg, _, _) -> RG.n_vertices rg) results;
      region_edges =
        Array.map
          (fun (rg, _, _) -> Sdngraph.Digraph.n_edges (RG.graph rg))
          results;
    }
  in
  Metrics.Counter.add c_regions stats.regions;
  Metrics.Counter.add c_cut_edges stats.cut_edges;
  Metrics.Counter.add c_border_rules stats.border_rules;
  Metrics.Counter.add c_chains stats.chains;
  Metrics.Counter.add c_stitched stats.stitched;
  {
    network = net;
    partition = part;
    probes;
    untestable;
    stats;
    generation_s = Sdn_util.Mono.now_s () -. t0;
  }

let size t = List.length t.probes

let region_of t sw = Partition.region_of t.partition sw

let stats_to_json t =
  let module J = Sdn_util.Json in
  let ints a = J.List (Array.to_list (Array.map (fun v -> J.Int v) a)) in
  J.Obj
    [
      ("regions", J.Int t.stats.regions);
      ("cut_edges", J.Int t.stats.cut_edges);
      ("border_rules", J.Int t.stats.border_rules);
      ("chains", J.Int t.stats.chains);
      ("stitched", J.Int t.stats.stitched);
      ("inter_edges", J.Int t.stats.inter_edges);
      ("region_vertices", ints t.stats.region_vertices);
      ("region_edges", ints t.stats.region_edges);
      ("probes", J.Int (size t));
      ("untestable", J.Int (List.length t.untestable));
    ]
