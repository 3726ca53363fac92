(* Quickstart: the paper's Figure 3 network, end to end.

   Builds the five-switch example topology with its ten flow entries,
   generates the minimum test-packet set (four probes — the paper's
   Figure 6), injects a drop fault on one rule, and localizes the faulty
   switch with Algorithm 2.

     dune exec examples/quickstart.exe *)

module Cube = Hspace.Cube
module FE = Openflow.Flow_entry
module Net = Openflow.Network
module Topology = Openflow.Topology
module Emu = Dataplane.Emulator
module Fault = Dataplane.Fault

let () =
  (* 1. Describe the topology: A-B, B-C, B-D, C-E, D-E. *)
  let topo = Topology.create ~n_switches:5 in
  let a, b, c, d, e = (0, 1, 2, 3, 4) in
  Topology.add_link topo ~sw_a:a ~port_a:1 ~sw_b:b ~port_b:1;
  Topology.add_link topo ~sw_a:b ~port_a:2 ~sw_b:c ~port_b:1;
  Topology.add_link topo ~sw_a:b ~port_a:3 ~sw_b:d ~port_b:1;
  Topology.add_link topo ~sw_a:c ~port_a:2 ~sw_b:e ~port_b:1;
  Topology.add_link topo ~sw_a:d ~port_a:2 ~sw_b:e ~port_b:2;

  (* 2. Install the flow entries of Figure 3 (8-bit headers). *)
  let net = Net.create ~header_len:8 topo in
  let add ~switch ~priority ~match_ ?set_field action =
    Net.add_entry net ~switch ~priority ~match_:(Cube.of_string match_)
      ?set_field:(Option.map Cube.of_string set_field)
      action
  in
  let _a1 = add ~switch:a ~priority:1 ~match_:"00101xxx" (FE.Output 1) in
  let b1 = add ~switch:b ~priority:3 ~match_:"0010xxxx" (FE.Output 2) in
  let _b2 = add ~switch:b ~priority:2 ~match_:"0011xxxx" (FE.Output 2) in
  let _b3 = add ~switch:b ~priority:1 ~match_:"000xxxxx" (FE.Output 3) in
  let _c1 = add ~switch:c ~priority:2 ~match_:"00100xxx" (FE.Output 2) in
  let _c2 = add ~switch:c ~priority:1 ~match_:"001xxxxx" (FE.Output 2) in
  let _d1 = add ~switch:d ~priority:1 ~match_:"000xxxxx" ~set_field:"0111xxxx" (FE.Output 2) in
  let _e1 = add ~switch:e ~priority:3 ~match_:"0010xxxx" FE.Drop in
  let _e2 = add ~switch:e ~priority:2 ~match_:"001xxxxx" FE.Drop in
  let _e3 = add ~switch:e ~priority:1 ~match_:"0111xxxx" FE.Drop in

  (* 3. Generate the minimum set of test packets (rule graph -> MLPC ->
     headers). *)
  let plan = Pipeline.plan (Pipeline.create net) in
  Format.printf "network: %a@." Net.pp_summary net;
  Format.printf "minimum test packets: %d (paper's Figure 6: 4)@."
    (Sdnprobe.Plan.size plan);
  List.iter
    (fun p -> Format.printf "  %a@." Sdnprobe.Probe.pp p)
    plan.Sdnprobe.Plan.probes;

  (* 4. Break switch B: its rule b1 silently drops packets. *)
  let emulator = Emu.create net in
  Emu.set_fault emulator ~entry:b1.FE.id (Fault.make Fault.Drop_packet);
  Format.printf "@.injected: drop fault on rule b1 (switch B)@.";

  (* 5. Localize with Algorithm 2. *)
  let report =
    Sdnprobe.Runner.execute_on
      ~stop:(Sdnprobe.Runner.stop_when_flagged [ b ])
      ~config:Sdnprobe.Config.default ~backend:(Sdnprobe.Backend.of_emulator emulator)
      (Pipeline.plan (Pipeline.create net))
  in
  Format.printf "%a@." Sdnprobe.Report.pp report;
  match Sdnprobe.Report.flagged_switches report with
  | [ 1 ] -> Format.printf "exact localization: switch B, nothing else. \u{2713}@."
  | other ->
      Format.printf "unexpected result: %a@." Fmt.(Dump.list int) other;
      exit 1
