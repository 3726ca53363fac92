(* Table II: test-packet generation at growing scale. For each topology
   we report the paper's columns: rules / switches / links, MLPS
   (maximum legal path length), ALPS (average legal path length), NLPS
   (total number of legal paths), TPC (test packet count) and PCT
   (pre-computation time). Topology sizes are scaled down ~20x from the
   paper's largest (their 358k-rule instance took 2549 s on their
   hardware); shapes, not absolutes, are the target. *)

module RG = Rulegraph.Rule_graph
module Digraph = Sdngraph.Digraph
module Hs = Hspace.Hs
module FE = Openflow.Flow_entry

(* Enumerate maximal legal paths (every maximal legal extension of each
   start rule), counting lengths; capped to keep the census bounded. *)
let legal_path_census rg ~cap =
  let g = RG.base_graph rg in
  let n = RG.n_vertices rg in
  let testable v = not (Hs.is_empty (RG.input rg v)) in
  let step hs w =
    let e = RG.vertex_entry rg w in
    Hs.apply_set_field ~set:e.FE.set_field (Hs.inter hs (RG.input rg w))
  in
  let count = ref 0 in
  let total_len = ref 0 in
  let max_len = ref 0 in
  let rec dfs v hs len =
    if !count < cap then begin
      let extensions =
        List.filter_map
          (fun w ->
            let hs' = step hs w in
            if Hs.is_empty hs' then None else Some (w, hs'))
          (Digraph.succ g v)
      in
      if extensions = [] then begin
        incr count;
        total_len := !total_len + len;
        if len > !max_len then max_len := len
      end
      else List.iter (fun (w, hs') -> dfs w hs' (len + 1)) extensions
    end
  in
  (* Starts: rules with no legal incoming extension would be exact; the
     paper counts paths from every start rule, which the sources
     approximate. *)
  for v = 0 to n - 1 do
    if testable v && Digraph.pred g v = [] then dfs v (RG.output rg v) 1
  done;
  let capped = !count >= cap in
  (!count, !max_len, (if !count = 0 then 0. else float_of_int !total_len /. float_of_int !count), capped)

let sizes quick =
  if quick then [ (10, 3, 2); (16, 4, 2); (22, 4, 2); (28, 5, 2); (34, 5, 3) ]
  else [ (12, 4, 2); (20, 5, 2); (30, 6, 3); (42, 7, 3); (56, 8, 3) ]

let run ~scale =
  Exp_common.banner "Table II: test packet generation at scale";
  let table =
    Metrics.Table.create
      [ "topo"; "rules"; "switches"; "links"; "MLPS"; "ALPS"; "NLPS"; "TPC"; "PCT(s)" ]
  in
  List.iteri
    (fun i (n_switches, flows, k) ->
      let rng = Sdn_util.Prng.create (9000 + i) in
      let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches () in
      let spec =
        {
          Topogen.Rule_gen.default_spec with
          Topogen.Rule_gen.k_paths = k;
          flows_per_destination = flows;
        }
      in
      let net = Topogen.Rule_gen.install ~spec rng topo in
      let session = Pipeline.create net in
      let plan = Pipeline.plan session in
      let nlps, mlps, alps, capped =
        legal_path_census (Pipeline.rulegraph session) ~cap:2_000_000
      in
      Metrics.Table.add_row table
        [
          string_of_int (i + 1);
          Metrics.Table.cell_i (Openflow.Network.n_entries net);
          Metrics.Table.cell_i n_switches;
          Metrics.Table.cell_i (Openflow.Topology.n_links topo);
          Metrics.Table.cell_i mlps;
          Metrics.Table.cell_f alps;
          (if capped then Printf.sprintf ">%d" nlps else Metrics.Table.cell_i nlps);
          Metrics.Table.cell_i (Sdnprobe.Plan.size plan);
          Metrics.Table.cell_f plan.Sdnprobe.Plan.generation_s;
        ])
    (sizes (scale = Exp_common.Quick));
  Metrics.Table.print table;
  Exp_common.note
    "paper (20x scale): rules 4.8k-359k, MLPS 6-9, ALPS 5.0-8.4, NLPS 15k-1.7M, TPC ~20%% of rules, PCT 2.9-2549s"
