(* Ablation benches for the design choices DESIGN.md calls out:

   1. legal transitive closure on/off — closure admits shorter covers;
   2. header-selection policy — SAT-unique vs deterministic vs random;
   3. suspicion threshold — detection latency / misses against an
      intermittent fault;
   4. randomized matching — packet-count overhead distribution across
      redraws. *)

module RG = Rulegraph.Rule_graph
module Emu = Dataplane.Emulator
module Fault = Dataplane.Fault
module FE = Openflow.Flow_entry
module Prng = Sdn_util.Prng
module Backend = Sdnprobe.Backend
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report

let closure_ablation ~scale =
  Exp_common.banner "Ablation: legal transitive closure on/off (cover size)";
  let nets = Workloads.suite ~count:(Exp_common.suite_count scale) ~seed:100 () in
  let table =
    Metrics.Table.create [ "topology"; "rules"; "with-closure"; "without"; "saving%" ]
  in
  List.iter
    (fun (w : Workloads.sized_net) ->
      let net = w.Workloads.network in
      let with_c = Mlpc.Cover.size (Mlpc.Legal_matching.solve (RG.build net)) in
      let without =
        Mlpc.Cover.size (Mlpc.Legal_matching.solve (RG.build ~closure:false net))
      in
      Metrics.Table.add_row table
        [
          w.Workloads.label;
          Metrics.Table.cell_i (Openflow.Network.n_entries net);
          Metrics.Table.cell_i with_c;
          Metrics.Table.cell_i without;
          Metrics.Table.cell_f
            (100. *. (1. -. (float_of_int with_c /. float_of_int (max 1 without))));
        ])
    nets;
  Metrics.Table.print table

let header_policy_ablation ~scale =
  ignore scale;
  Exp_common.banner "Ablation: header selection policy (campus cover)";
  let net = Topogen.Campus.synthesize (Prng.create 42) in
  let rg = RG.build net in
  let cover = Mlpc.Legal_matching.solve rg in
  let table = Metrics.Table.create [ "policy"; "headers"; "distinct"; "time(ms)" ] in
  let distinct hs = List.length (List.sort_uniq Hspace.Header.compare hs) in
  let measure name policy =
    let assigned, dt = Sdn_util.Misc.span_time (fun () -> Mlpc.Headers.assign policy cover) in
    let hs = List.map snd assigned in
    Metrics.Table.add_row table
      [
        name;
        Metrics.Table.cell_i (List.length hs);
        Metrics.Table.cell_i (distinct hs);
        Metrics.Table.cell_f (dt *. 1e3);
      ]
  in
  measure "deterministic" Mlpc.Headers.Deterministic;
  measure "sat-unique" Mlpc.Headers.Sat_unique;
  measure "random" (Mlpc.Headers.Random (Prng.create 3));
  Metrics.Table.print table

let threshold_ablation ~scale =
  ignore scale;
  Exp_common.banner "Ablation: suspicion threshold vs intermittent-fault detection";
  let w = List.nth (Workloads.suite ~count:3 ~seed:100 ()) 1 in
  let net = w.Workloads.network in
  let entry =
    List.find
      (fun (e : FE.t) -> match e.action with FE.Output _ -> true | _ -> false)
      (Openflow.Network.all_entries net)
  in
  let table = Metrics.Table.create [ "threshold"; "detected"; "time(s)"; "FP" ] in
  List.iter
    (fun threshold ->
      let emulator = Emu.create net in
      Emu.set_fault emulator ~entry:entry.FE.id
        (Fault.make
           ~activation:
             (Fault.Random_bursts { window_us = 30_000; active_ratio = 0.3; seed = 9 })
           Fault.Drop_packet);
      let config = Sdnprobe.Config.make ~threshold ~max_rounds:300 () in
      let report =
        Runner.execute_on
          ~stop:(Runner.stop_when_flagged [ entry.FE.switch ])
          ~config ~backend:(Backend.of_emulator emulator)
          (Pipeline.plan (Pipeline.create net))
      in
      let flagged = Report.flagged_switches report in
      Metrics.Table.add_row table
        [
          Metrics.Table.cell_i threshold;
          (if List.mem entry.FE.switch flagged then "yes" else "no");
          (match Report.detection_time report entry.FE.switch with
          | Some t -> Metrics.Table.cell_f t
          | None -> "-");
          Metrics.Table.cell_i
            (List.length (List.filter (fun sw -> sw <> entry.FE.switch) flagged));
        ])
    [ 1; 2; 3; 5; 8 ];
  Metrics.Table.print table

let randomized_overhead_ablation ~scale =
  ignore scale;
  Exp_common.banner "Ablation: randomized matching overhead across redraws";
  let w = List.nth (Workloads.suite ~count:4 ~seed:100 ()) 3 in
  let net = w.Workloads.network in
  let rg = RG.build net in
  let minimum = Mlpc.Cover.size (Mlpc.Legal_matching.solve rg) in
  let sizes =
    List.init 10 (fun s ->
        float_of_int
          (Mlpc.Cover.size (Mlpc.Legal_matching.randomized (Prng.create (100 + s)) rg)))
  in
  Exp_common.note
    "minimum %d; randomized over 10 redraws: min %.0f, mean %.1f, max %.0f (overhead mean %.0f%%, paper ~72%%)"
    minimum
    (List.fold_left min infinity sizes)
    (Sdn_util.Misc.mean sizes)
    (List.fold_left max neg_infinity sizes)
    (100. *. ((Sdn_util.Misc.mean sizes /. float_of_int minimum) -. 1.))

let incremental_update_ablation ~scale =
  Exp_common.banner
    "Ablation: incremental rule-graph update vs full rebuild (one rule add)";
  let nets = Workloads.suite ~count:(Exp_common.suite_count scale) ~seed:100 () in
  let table =
    Metrics.Table.create [ "topology"; "rules"; "full(ms)"; "incremental(ms)"; "speedup" ]
  in
  List.iter
    (fun (w : Workloads.sized_net) ->
      let net = w.Workloads.network in
      let rg0 = RG.build net in
      (* Install one fresh high-priority rule on switch 0. *)
      let port =
        List.hd (Openflow.Topology.ports_of (Openflow.Network.topology net) 0)
      in
      let _ =
        Openflow.Network.add_entry net ~switch:0 ~priority:25
          ~match_:
            (Topogen.Rule_gen.block_of
               ~header_len:(Openflow.Network.header_len net)
               ~prefix_bits:(Topogen.Rule_gen.prefix_bits ~n_switches:w.Workloads.n_switches)
               1)
          (FE.Output port)
      in
      let _, incremental_s =
        Sdn_util.Misc.span_time (fun () -> RG.update rg0 ~changed_tables:[ (0, 0) ])
      in
      let _, full_s = Sdn_util.Misc.span_time (fun () -> RG.build net) in
      Metrics.Table.add_row table
        [
          w.Workloads.label;
          Metrics.Table.cell_i (Openflow.Network.n_entries net);
          Metrics.Table.cell_f (full_s *. 1e3);
          Metrics.Table.cell_f (incremental_s *. 1e3);
          Printf.sprintf "%.1fx" (full_s /. max 1e-9 incremental_s);
        ])
    nets;
  Metrics.Table.print table

let run ~scale =
  closure_ablation ~scale;
  header_policy_ablation ~scale;
  threshold_ablation ~scale;
  randomized_overhead_ablation ~scale;
  incremental_update_ablation ~scale
