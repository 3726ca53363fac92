(* Intermittent watch: catching a flapping fault with suspicion levels.

   A rule drops packets only in short pseudo-random bursts (active ~30%
   of the time, each burst shorter than a localization cycle). One
   detection round cannot attribute it; Algorithm 2's suspicion levels
   accumulate across rounds until the faulty switch crosses the
   threshold. The run prints each detection and how the suspicion
   ranking singles out the flapping rule.

     dune exec examples/intermittent_watch.exe *)

module FE = Openflow.Flow_entry
module Emu = Dataplane.Emulator
module Fault = Dataplane.Fault
module Backend = Sdnprobe.Backend
module Runner = Sdnprobe.Runner
module Report = Sdnprobe.Report

let () =
  let rng = Sdn_util.Prng.create 5 in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:12 () in
  let net = Topogen.Rule_gen.install rng topo in
  Format.printf "%a@." Openflow.Network.pp_summary net;

  let victim =
    List.find
      (fun (e : FE.t) -> match e.action with FE.Output _ -> true | _ -> false)
      (Openflow.Network.all_entries net)
  in
  let emulator = Emu.create net in
  Emu.set_fault emulator ~entry:victim.FE.id
    (Fault.make
       ~activation:(Fault.Random_bursts { window_us = 30_000; active_ratio = 0.3; seed = 42 })
       Fault.Drop_packet);
  Format.printf "flapping rule: %d on switch %d (drop bursts, ~30%% duty)@." victim.FE.id
    victim.FE.switch;

  let config = Sdnprobe.Config.make ~max_rounds:400 () in
  let report =
    Runner.execute_on
      ~stop:(Runner.stop_when_flagged [ victim.FE.switch ])
      ~config ~backend:(Backend.of_emulator emulator)
      (Pipeline.plan (Pipeline.create net))
  in
  List.iter
    (fun (d : Report.detection) ->
      Format.printf "detected switch %d at %.2fs (round %d)@." d.Report.switch
        d.Report.time_s d.Report.round)
    report.Report.detections;
  Format.printf "rounds: %d, probes sent: %d@." report.Report.rounds
    report.Report.packets_sent;
  (match report.Report.suspicion_ranking with
  | (rule, level) :: _ ->
      Format.printf "highest suspicion: rule %d (level %d)%s@." rule level
        (if rule = victim.FE.id then " — the flapping rule" else "")
  | [] -> ());
  if Report.flagged_switches report = [ victim.FE.switch ] then
    Format.printf "exact localization despite the flapping. \u{2713}@."
  else begin
    Format.printf "unexpected detection set@.";
    exit 1
  end
