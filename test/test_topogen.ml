(* Tests for topology generation and flow-rule synthesis. *)

module Topology = Openflow.Topology
module Network = Openflow.Network
module FE = Openflow.Flow_entry
module Cube = Hspace.Cube
module Header = Hspace.Header
module Prng = Sdn_util.Prng
module RG = Rulegraph.Rule_graph
module Emu = Dataplane.Emulator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Topologies *)

let connected topo =
  Sdngraph.Digraph.is_connected_undirected (Topology.to_digraph topo)

let test_rocketfuel_like () =
  let rng = Prng.create 1 in
  for n = 2 to 40 do
    let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:n () in
    check_int "switch count" n (Topology.n_switches topo);
    check_bool "connected" true (connected topo);
    check_bool "enough links" true (Topology.n_links topo >= n - 1)
  done

let test_rocketfuel_deterministic () =
  let gen seed =
    let topo = Topogen.Topo_gen.rocketfuel_like (Prng.create seed) ~n_switches:25 () in
    Topology.links topo
  in
  check_bool "same seed same topo" true (gen 7 = gen 7);
  check_bool "different seeds differ" true (gen 7 <> gen 8)

let test_line () =
  let topo = Topogen.Topo_gen.line ~n_switches:5 in
  check_int "links" 4 (Topology.n_links topo);
  check_bool "connected" true (connected topo)

let test_fat_tree_like () =
  let topo = Topogen.Topo_gen.fat_tree_like (Prng.create 3) ~pods:6 in
  check_bool "connected" true (connected topo)

(* ------------------------------------------------------------------ *)
(* Rule generation *)

let small_net seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:12 () in
  let spec =
    { Topogen.Rule_gen.default_spec with Topogen.Rule_gen.flows_per_destination = 3 }
  in
  (topo, Topogen.Rule_gen.install ~spec rng topo)

let test_rule_gen_loop_free () =
  for seed = 1 to 5 do
    let _, net = small_net seed in
    (* build raises Cyclic_policy when looping; also check explicitly. *)
    let rg = RG.build ~closure:false net in
    check_bool "dag" false (Sdngraph.Digraph.has_cycle (RG.base_graph rg))
  done

let test_rule_gen_structure () =
  let _, net = small_net 2 in
  let entries = Network.all_entries net in
  let deliveries = List.filter (fun (e : FE.t) -> e.priority = 30) entries in
  let aggregates = List.filter (fun (e : FE.t) -> e.priority = 10) entries in
  let engineered = List.filter (fun (e : FE.t) -> e.priority = 20) entries in
  check_int "one delivery per destination" 12 (List.length deliveries);
  (* Aggregates: every (switch, destination) pair except the destination
     itself. *)
  check_int "aggregates" (12 * 11) (List.length aggregates);
  check_bool "has engineered flows" true (engineered <> [])

let test_rule_gen_forwarding_delivers () =
  (* Any header addressed to destination v must reach v and be
     delivered there, from any starting switch. *)
  let _, net = small_net 3 in
  let emu = Emu.create net in
  let rng = Prng.create 9 in
  let p = Topogen.Rule_gen.prefix_bits ~n_switches:12 in
  for v = 0 to 11 do
    for s = 0 to 11 do
      if s <> v then begin
        let block = Topogen.Rule_gen.block_of ~header_len:32 ~prefix_bits:p v in
        let header = Header.of_cube (Cube.sample rng block) in
        match (Emu.inject emu ~at:s header).Emu.outcome with
        | Emu.Delivered { at_switch; _ } -> check_int "delivered at v" v at_switch
        | _ -> Alcotest.failf "header for %d from %d not delivered" v s
      end
    done
  done

let test_rule_gen_engineered_paths_used () =
  (* An engineered flow's header must traverse its priority-20 rules. *)
  let _, net = small_net 4 in
  let emu = Emu.create net in
  let engineered =
    List.filter (fun (e : FE.t) -> e.priority = 20) (Network.all_entries net)
  in
  check_bool "exists" true (engineered <> []);
  let e = List.hd engineered in
  let rng = Prng.create 1 in
  let header = Header.of_cube (Cube.sample rng e.FE.match_) in
  let result = Emu.inject emu ~at:e.FE.switch header in
  check_bool "traverses the engineered rule" true
    (List.exists (fun h -> h.Emu.entry = e.FE.id) result.Emu.trace)

let test_rule_gen_spec_validation () =
  let topo = Topogen.Topo_gen.line ~n_switches:4 in
  let spec = { Topogen.Rule_gen.default_spec with Topogen.Rule_gen.header_len = 6 } in
  Alcotest.check_raises "header too small"
    (Invalid_argument "Rule_gen.install: dst+src+selector bits exceed header length")
    (fun () -> ignore (Topogen.Rule_gen.install ~spec (Prng.create 1) topo));
  let spec2 =
    { Topogen.Rule_gen.default_spec with Topogen.Rule_gen.k_paths = 9; selector_bits = 3 }
  in
  Alcotest.check_raises "too many paths"
    (Invalid_argument "Rule_gen.install: more paths than selector values") (fun () ->
      ignore (Topogen.Rule_gen.install ~spec:spec2 (Prng.create 1) topo))

let test_prefix_bits () =
  check_int "2 switches" 1 (Topogen.Rule_gen.prefix_bits ~n_switches:2);
  check_int "3 switches" 2 (Topogen.Rule_gen.prefix_bits ~n_switches:3);
  check_int "16 switches" 4 (Topogen.Rule_gen.prefix_bits ~n_switches:16);
  check_int "17 switches" 5 (Topogen.Rule_gen.prefix_bits ~n_switches:17)

let acl_net seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:10 () in
  let spec =
    {
      Topogen.Rule_gen.default_spec with
      Topogen.Rule_gen.flows_per_destination = 3;
      acl_rules_per_switch = 4;
    }
  in
  Topogen.Rule_gen.install ~spec rng topo

let test_acl_pipeline_structure () =
  let net = acl_net 41 in
  check_int "two tables" 2 (Network.n_tables net);
  for sw = 0 to 9 do
    let t0 = Openflow.Flow_table.entries (Network.table net ~switch:sw ~table:0) in
    (* 4 blacklist drops + one goto per destination. *)
    check_int "table 0 size" 14 (List.length t0);
    check_bool "catch-all goto" true
      (List.exists (fun (e : FE.t) -> e.action = FE.Goto_table 1) t0);
    check_bool "routing rules in table 1" true
      (Openflow.Flow_table.size (Network.table net ~switch:sw ~table:1) > 0)
  done

let test_acl_pipeline_forwarding () =
  (* Clean payloads route normally through the two-table pipeline;
     blacklisted payloads die at the first switch's ACL. *)
  let net = acl_net 42 in
  let emu = Emu.create net in
  let rng = Prng.create 1 in
  let p = Topogen.Rule_gen.prefix_bits ~n_switches:10 in
  let acl0 =
    List.filter
      (fun (e : FE.t) -> e.table = 0 && e.action = FE.Drop)
      (Network.switch_entries net 3)
  in
  check_int "four blacklist rules" 4 (List.length acl0);
  let block = Topogen.Rule_gen.block_of ~header_len:32 ~prefix_bits:p 7 in
  (* A header inside a blacklisted pattern, addressed to switch 7. *)
  let bad =
    match Hspace.Cube.inter block (List.hd acl0).FE.match_ with
    | Some c -> Header.of_cube (Hspace.Cube.first_member c)
    | None -> Alcotest.fail "pattern should intersect the block"
  in
  (match (Emu.inject emu ~at:3 bad).Emu.outcome with
  | Emu.Delivered { at_switch = 3; _ } -> () (* absorbed by the ACL *)
  | _ -> Alcotest.fail "blacklisted payload must die at the ACL");
  (* A clean payload gets through: avoid all patterns of all switches. *)
  let avoid =
    List.concat_map
      (fun sw ->
        List.filter_map
          (fun (e : FE.t) ->
            if e.table = 0 && e.action = FE.Drop then Some e.match_ else None)
          (Network.switch_entries net sw))
      (List.init 10 Fun.id)
  in
  match Sat.Header_encoding.find_header ~avoid ~inside:[ block ] 32 with
  | None -> Alcotest.fail "expected a clean header"
  | Some clean -> (
      ignore rng;
      match (Emu.inject emu ~at:3 clean).Emu.outcome with
      | Emu.Delivered { at_switch = 7; _ } -> ()
      | _ -> Alcotest.fail "clean payload must be delivered at its destination")

let test_acl_pipeline_probes () =
  (* The whole pipeline is probe-coverable: every rule, ACL included,
     appears in the plan, and faults behind the goto are localized. *)
  let net = acl_net 43 in
  let plan = Pipeline.plan (Pipeline.create net) in
  let covered =
    List.sort_uniq compare
      (List.concat_map (fun (pr : Sdnprobe.Probe.t) -> pr.Sdnprobe.Probe.rules)
         plan.Sdnprobe.Plan.probes)
  in
  check_int "every rule covered" (Network.n_entries net) (List.length covered);
  (* Fault on a routing rule (table 1): localized through the ACL. *)
  let victim =
    List.find
      (fun (e : FE.t) -> e.table = 1 && (match e.action with FE.Output _ -> true | _ -> false))
      (Network.all_entries net)
  in
  let emu = Emu.create net in
  Emu.set_fault emu ~entry:victim.FE.id (Dataplane.Fault.make Dataplane.Fault.Drop_packet);
  let report =
    Sdnprobe.Runner.execute_on
      ~stop:(Sdnprobe.Runner.stop_when_flagged [ victim.FE.switch ])
      ~config:Sdnprobe.Config.default ~backend:(Sdnprobe.Backend.of_emulator emu)
      (Pipeline.plan (Pipeline.create net))
  in
  check_bool "localized" true
    (Sdnprobe.Report.flagged_switches report = [ victim.FE.switch ])

(* ------------------------------------------------------------------ *)
(* Campus dataset *)

let test_campus_statistics () =
  let net = Topogen.Campus.synthesize (Prng.create 1) in
  let s = Topogen.Campus.stats_of net in
  check_int "max overlap" 65 s.Topogen.Campus.max_overlap;
  check_bool "table sizes" true
    (List.map snd s.Topogen.Campus.table_sizes = [ 550; 579 ]);
  check_int "total" (550 + 579 + 2) s.Topogen.Campus.total_rules

let test_campus_loop_free_and_coverable () =
  let net = Topogen.Campus.synthesize (Prng.create 2) in
  let rg = RG.build net in
  check_bool "dag" false (Sdngraph.Digraph.has_cycle (RG.graph rg));
  let cover = Mlpc.Legal_matching.solve rg in
  check_bool "no untestable rules" true (cover.Mlpc.Cover.untestable = []);
  check_bool "is cover" true (Mlpc.Cover.is_cover rg cover);
  (* The paper reports ~600 test packets for the real dataset. *)
  let packets = Mlpc.Cover.size cover in
  check_bool "packet count near paper's 600" true (packets >= 550 && packets <= 700)

let test_campus_custom_sizes () =
  let net = Topogen.Campus.synthesize ~table_a:100 ~table_b:120 ~max_overlap:20 (Prng.create 3) in
  let s = Topogen.Campus.stats_of net in
  check_int "overlap" 20 s.Topogen.Campus.max_overlap;
  check_bool "tables" true (List.map snd s.Topogen.Campus.table_sizes = [ 100; 120 ])

let test_campus_forwarding () =
  let net = Topogen.Campus.synthesize (Prng.create 4) in
  let emu = Emu.create net in
  let rng = Prng.create 5 in
  (* Any header inside one of core A's routes is carried through both
     cores and delivered at the egress edge (core B spans core A's
     family universe). *)
  let core_a = Network.switch_entries net 1 in
  for _ = 1 to 20 do
    let e = Prng.choose_list rng core_a in
    let header = Header.of_cube (Cube.sample rng e.FE.match_) in
    match (Emu.inject emu ~at:0 header).Emu.outcome with
    | Emu.Delivered { at_switch; _ } -> check_int "egress" 3 at_switch
    | _ -> Alcotest.fail "campus header lost"
  done

let () =
  Alcotest.run "topogen"
    [
      ( "topologies",
        [
          Alcotest.test_case "rocketfuel-like" `Quick test_rocketfuel_like;
          Alcotest.test_case "deterministic" `Quick test_rocketfuel_deterministic;
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "fat-tree-like" `Quick test_fat_tree_like;
        ] );
      ( "rule generation",
        [
          Alcotest.test_case "loop free" `Quick test_rule_gen_loop_free;
          Alcotest.test_case "structure" `Quick test_rule_gen_structure;
          Alcotest.test_case "forwarding delivers" `Quick test_rule_gen_forwarding_delivers;
          Alcotest.test_case "engineered paths" `Quick test_rule_gen_engineered_paths_used;
          Alcotest.test_case "spec validation" `Quick test_rule_gen_spec_validation;
          Alcotest.test_case "prefix bits" `Quick test_prefix_bits;
        ] );
      ( "acl pipeline",
        [
          Alcotest.test_case "structure" `Quick test_acl_pipeline_structure;
          Alcotest.test_case "forwarding" `Quick test_acl_pipeline_forwarding;
          Alcotest.test_case "probe coverage" `Quick test_acl_pipeline_probes;
        ] );
      ( "campus",
        [
          Alcotest.test_case "statistics" `Quick test_campus_statistics;
          Alcotest.test_case "loop free / coverable" `Quick test_campus_loop_free_and_coverable;
          Alcotest.test_case "custom sizes" `Quick test_campus_custom_sizes;
          Alcotest.test_case "forwarding" `Quick test_campus_forwarding;
        ] );
    ]
