(* Tests for the baseline schemes: Per-rule Test and ATPG. The
   qualitative behaviours asserted here are Table I's rows. *)

module Emu = Dataplane.Emulator
module Fault = Dataplane.Fault
module FE = Openflow.Flow_entry
module Probe = Sdnprobe.Probe
module Report = Sdnprobe.Report
module Config = Sdnprobe.Config
module Backend = Sdnprobe.Backend
module Runner = Sdnprobe.Runner
module Hs = Hspace.Hs
module RG = Rulegraph.Rule_graph
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config = Config.default

(* ------------------------------------------------------------------ *)
(* Per-rule generation *)

let test_per_rule_count () =
  (* One probe per (testable) flow entry — Figure 8(a)'s upper line. *)
  let fx = Fixtures.figure3 () in
  let probes = List.map fst (fst (Baselines.Per_rule.generate fx.Fixtures.net)) in
  check_int "one per rule" 10 (List.length probes)

let test_per_rule_paths_short_and_valid () =
  let fx = Fixtures.figure3 () in
  let probes = List.map fst (fst (Baselines.Per_rule.generate fx.Fixtures.net)) in
  let emu = Emu.create fx.Fixtures.net in
  List.iter
    (fun (p : Probe.t) ->
      check_bool "at most 3 hops" true (Probe.hop_count p <= 3);
      (* Each probe passes on the healthy network. *)
      Emu.install_trap emu ~probe:p.Probe.id ~switch:p.Probe.terminal_switch
        ~rule:p.Probe.terminal_rule ~header:p.Probe.expected_header;
      (match (Emu.inject emu ~at:p.Probe.inject_switch p.Probe.header).Emu.outcome with
      | Emu.Returned { probe; _ } when probe = p.Probe.id -> ()
      | _ -> Alcotest.failf "per-rule probe %d failed on healthy net" p.Probe.id);
      Emu.remove_probe_traps emu ~probe:p.Probe.id)
    probes

let test_per_rule_covers_all_rules () =
  let fx = Fixtures.figure3 () in
  let probes = List.map fst (fst (Baselines.Per_rule.generate fx.Fixtures.net)) in
  (* Every rule is the "target" of one probe; conservatively check that
     every rule appears on some probe. *)
  let covered =
    List.sort_uniq compare (List.concat_map (fun (p : Probe.t) -> p.Probe.rules) probes)
  in
  check_int "all rules appear" 10 (List.length covered)

(* ------------------------------------------------------------------ *)
(* Per-rule localization *)

let test_per_rule_detects_single_fault () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
  let report =
    Baselines.Per_rule.run ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b ]) ~config emu
  in
  check_bool "B detected" true (List.mem Fixtures.sw_b (Report.flagged_switches report))

let test_per_rule_false_positives () =
  (* The probe for b1 runs a1 -> b1 -> c2/c1; when b1 drops, per-rule
     cannot tell A, B and C apart: neighbours get framed (Table I). *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
  let cfg = Config.with_max_rounds 12 config in
  let report = Baselines.Per_rule.run ~config:cfg emu in
  let flagged = Report.flagged_switches report in
  check_bool "B detected" true (List.mem Fixtures.sw_b flagged);
  check_bool "neighbours framed (FP)" true (List.length flagged > 1)

(* ------------------------------------------------------------------ *)
(* ATPG generation *)

let test_atpg_covers_all_rules () =
  let fx = Fixtures.figure3 () in
  let gen = Baselines.Atpg.generate fx.Fixtures.net in
  let covered =
    List.sort_uniq compare
      (List.concat_map (fun (p : Probe.t) -> p.Probe.rules) gen.Baselines.Atpg.probes)
  in
  check_int "all rules covered" 10 (List.length covered)

let test_atpg_probes_legal () =
  let fx = Fixtures.figure3 () in
  let gen = Baselines.Atpg.generate fx.Fixtures.net in
  let emu = Emu.create fx.Fixtures.net in
  List.iter
    (fun (p : Probe.t) ->
      Emu.install_trap emu ~probe:p.Probe.id ~switch:p.Probe.terminal_switch
        ~rule:p.Probe.terminal_rule ~header:p.Probe.expected_header;
      (match (Emu.inject emu ~at:p.Probe.inject_switch p.Probe.header).Emu.outcome with
      | Emu.Returned { probe; _ } when probe = p.Probe.id -> ()
      | _ -> Alcotest.failf "atpg probe %d failed on healthy net" p.Probe.id);
      Emu.remove_probe_traps emu ~probe:p.Probe.id)
    gen.Baselines.Atpg.probes

let test_atpg_at_least_mlpc_size () =
  (* Greedy MSC can never beat the exact minimum. *)
  let rng = Prng.create 17 in
  for _ = 1 to 5 do
    let net =
      Fixtures.random_line_net rng ~n_switches:5 ~rules_per_switch:4 ~header_len:8
    in
    let gen = Baselines.Atpg.generate net in
    let rg = RG.build net in
    let mlpc = Mlpc.Legal_matching.solve rg in
    check_bool "atpg >= mlpc" true
      (List.length gen.Baselines.Atpg.probes >= Mlpc.Cover.size mlpc)
  done

(* ------------------------------------------------------------------ *)
(* ATPG localization *)

let test_atpg_detects_single_fault () =
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
  let report =
    Baselines.Atpg.run ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b ]) ~config emu
  in
  check_bool "B detected" true (List.mem Fixtures.sw_b (Report.flagged_switches report))

let test_atpg_no_fn_multiple_faults () =
  (* Two simultaneous drop faults: iterative intersection must find both
     switches (the paper reports FNR = 0 for basic faults). *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
  Emu.set_fault emu ~entry:fx.Fixtures.d1.FE.id (Fault.make Fault.Drop_packet);
  let cfg = Config.with_max_rounds 40 config in
  let report =
    Baselines.Atpg.run ~stop:(Runner.stop_when_flagged [ Fixtures.sw_b; Fixtures.sw_d ])
      ~config:cfg emu
  in
  let flagged = Report.flagged_switches report in
  check_bool "B detected" true (List.mem Fixtures.sw_b flagged);
  check_bool "D detected" true (List.mem Fixtures.sw_d flagged)

let test_atpg_false_positive_at_intersection () =
  (* b3 (switch B) and e3 (switch E) sit on the same tested path as d1;
     faults on b1 and d1 make two failed paths whose switch sets
     intersect at benign switches: ATPG frames at least one of them. *)
  let fx = Fixtures.figure3 () in
  let emu = Emu.create fx.Fixtures.net in
  Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
  Emu.set_fault emu ~entry:fx.Fixtures.d1.FE.id (Fault.make Fault.Drop_packet);
  let cfg = Config.with_max_rounds 40 config in
  let report = Baselines.Atpg.run ~config:cfg emu in
  let flagged = Report.flagged_switches report in
  let fps = List.filter (fun sw -> sw <> Fixtures.sw_b && sw <> Fixtures.sw_d) flagged in
  check_bool "has false positives" true (fps <> [])

let test_atpg_computation_penalty () =
  (* With identical faults, ATPG's virtual detection time must exceed
     SDNProbe's (Fig. 8b): it pays for recomputing test packets. *)
  let fault_on net (fx : Fixtures.figure3) =
    let emu = Emu.create net in
    Emu.set_fault emu ~entry:fx.Fixtures.b1.FE.id (Fault.make Fault.Drop_packet);
    emu
  in
  let fx = Fixtures.figure3 () in
  let stop = Runner.stop_when_flagged [ Fixtures.sw_b ] in
  let sdn =
    let emulator = fault_on fx.Fixtures.net fx in
    Runner.execute_on ~stop ~config ~backend:(Backend.of_emulator emulator)
      (Pipeline.plan (Pipeline.create (Emu.network emulator)))
  in
  let atpg =
    Baselines.Atpg.run ~stop ~compute_us_per_rule:20_000 ~config (fault_on fx.Fixtures.net fx)
  in
  (match Report.time_to_detect_all sdn ~ground_truth:[ Fixtures.sw_b ] with
  | None -> Alcotest.fail "sdnprobe missed"
  | Some t_sdn -> (
      match Report.time_to_detect_all atpg ~ground_truth:[ Fixtures.sw_b ] with
      | None -> Alcotest.fail "atpg missed"
      | Some t_atpg -> check_bool "atpg slower" true (t_atpg > t_sdn)))

let () =
  Alcotest.run "baselines"
    [
      ( "per-rule generation",
        [
          Alcotest.test_case "count" `Quick test_per_rule_count;
          Alcotest.test_case "short valid paths" `Quick test_per_rule_paths_short_and_valid;
          Alcotest.test_case "covers rules" `Quick test_per_rule_covers_all_rules;
        ] );
      ( "per-rule localization",
        [
          Alcotest.test_case "detects single fault" `Quick test_per_rule_detects_single_fault;
          Alcotest.test_case "false positives" `Quick test_per_rule_false_positives;
        ] );
      ( "atpg generation",
        [
          Alcotest.test_case "covers rules" `Quick test_atpg_covers_all_rules;
          Alcotest.test_case "legal probes" `Quick test_atpg_probes_legal;
          Alcotest.test_case "size >= mlpc" `Quick test_atpg_at_least_mlpc_size;
        ] );
      ( "atpg localization",
        [
          Alcotest.test_case "single fault" `Quick test_atpg_detects_single_fault;
          Alcotest.test_case "no FN multiple" `Quick test_atpg_no_fn_multiple_faults;
          Alcotest.test_case "FP at intersection" `Quick test_atpg_false_positive_at_intersection;
          Alcotest.test_case "computation penalty" `Quick test_atpg_computation_penalty;
        ] );
    ]
