(* Pipeline sessions: incremental re-planning is byte-identical to
   planning from scratch, patches certify, and corrupted patches are
   rejected.

   The byte-identity property is the pipeline's determinism contract
   (lib/pipeline/pipeline.mli): after any sequence of [Pipeline.apply]
   batches, the session's plan — probes, headers, ids — and its
   certificate JSON equal those of [Pipeline.create] on the mutated
   network, at every domain count. *)

module N = Openflow.Network
module FE = Openflow.Flow_entry
module Edits = Sdn_util.Edits
module Prng = Sdn_util.Prng
module Plan = Sdnprobe.Plan
module Probe = Sdnprobe.Probe
module Certify = Sdnprobe.Certify

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_net ~switches ~seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:switches () in
  Topogen.Rule_gen.install rng topo

(* Remove-then-reinstall churn, the same shape [sdnprobe edits] emits:
   victims are drawn from the live table — without replacement, since
   the batch is built against a snapshot and a double draw would emit a
   second [Remove] for an id the first one already deleted. *)
let churn_batch rng net ~ops =
  let chosen = Hashtbl.create 8 in
  List.concat
    (List.init ops (fun _ ->
         let entries = N.all_entries net in
         let victim =
           let rec draw () =
             let v = List.nth entries (Prng.int rng (List.length entries)) in
             if Hashtbl.mem chosen v.FE.id then draw ()
             else begin
               Hashtbl.add chosen v.FE.id ();
               v
             end
           in
           draw ()
         in
         [
           Edits.Remove victim.FE.id;
           Edits.Add
             {
               Edits.switch = victim.FE.switch;
               table = victim.FE.table;
               priority = victim.FE.priority;
               match_ = Hspace.Cube.to_string victim.FE.match_;
               set_field = Some (Hspace.Cube.to_string victim.FE.set_field);
               action =
                 (match victim.FE.action with
                 | FE.Drop -> Edits.Drop
                 | FE.Output p -> Edits.Output p
                 | FE.Goto_table t -> Edits.Goto_table t);
             };
         ]))

let probe_repr (p : Probe.t) =
  ( p.Probe.id,
    p.Probe.rules,
    Hspace.Header.to_string p.Probe.header,
    Hspace.Header.to_string p.Probe.expected_header,
    p.Probe.inject_switch,
    p.Probe.terminal_switch,
    p.Probe.terminal_rule )

let plan_repr (plan : Plan.t) = List.map probe_repr plan.Plan.probes

let cert_json plan =
  Sdn_util.Json.to_string (Certify.to_json (Certify.run ~seed:11 plan))

(* The property: [batches] batches of [ops] remove+reinstall pairs,
   then compare the incrementally-maintained session against a scratch
   session on the same (mutated) network. Returns false on the first
   divergence. Also checks every patch against [Certify.run_patch]. *)
let churn_identity ~seed ~batches ~ops =
  let net = make_net ~switches:8 ~seed in
  let session = ref (Pipeline.create net) in
  let rng = Prng.create (seed + 7919) in
  let ok = ref true in
  for batch = 1 to batches do
    let before = (Pipeline.plan !session).Plan.probes in
    let edits = churn_batch rng net ~ops in
    let s', patch = Pipeline.apply !session edits in
    session := s';
    let after = Pipeline.plan s' in
    (* Patch certifies against the pre/post plans. *)
    let event =
      Sdnprobe.Report.patch_event_of_patch ~batch
        ~plan_size_after:(List.length after.Plan.probes) ~apply_s:0. patch
    in
    if
      not
        (Certify.ok_report
           (Certify.run_patch ~seed:11 ~event ~before ~patch after))
    then ok := false;
    (* Byte-identity against a scratch re-plan. *)
    let fresh = Pipeline.create net in
    if plan_repr after <> plan_repr (Pipeline.plan fresh) then ok := false;
    if cert_json after <> cert_json (Pipeline.plan fresh) then ok := false
  done;
  !ok

let test_churn_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"apply = scratch re-plan (bytes) after edit batches"
       ~count:6
       QCheck.(pair (int_bound 1000) (1 -- 3))
       (fun (seed, ops) -> churn_identity ~seed ~batches:3 ~ops))

(* ------------------------------------------------------------------ *)
(* Deterministic fixed cases (fast, non-random) *)

let apply_once ?(switches = 8) ~seed ~ops () =
  let net = make_net ~switches ~seed in
  let session = Pipeline.create net in
  let before = (Pipeline.plan session).Plan.probes in
  let rng = Prng.create (seed + 7919) in
  let edits = churn_batch rng net ~ops in
  let session', patch = Pipeline.apply session edits in
  (before, patch, Pipeline.plan session')

let test_empty_batch () =
  let net = make_net ~switches:8 ~seed:1 in
  let session = Pipeline.create net in
  let session', patch = Pipeline.apply session [] in
  check_bool "empty patch" true (Plan.patch_is_empty patch);
  check_int "epoch unchanged" 0 (Pipeline.epoch session')

let test_patch_certifies () =
  let before, patch, after = apply_once ~seed:3 ~ops:2 () in
  let report = Certify.run_patch ~seed:11 ~before ~patch after in
  if not (Certify.ok_report report) then
    Alcotest.fail (Format.asprintf "%a" Certify.pp report)

(* [generation_s] is the whole pre-computation, rule-graph build
   included (Table II's PCT): it must account for nearly all of the
   wall time spent in [Pipeline.create]. *)
let test_generation_s_covers_create () =
  let net = make_net ~switches:30 ~seed:1 in
  let t0 = Sdn_util.Mono.now_s () in
  let session = Pipeline.create net in
  let wall = Sdn_util.Mono.now_s () -. t0 in
  let gen = (Pipeline.plan session).Plan.generation_s in
  if gen < 0.8 *. wall then
    Alcotest.failf "generation_s %.3fs is under 0.8x of create's %.3fs" gen wall

(* A randomized session re-draws over its incrementally updated rule
   graph: after [apply] the graph matches a scratch build and the drawn
   plan certifies. *)
let test_randomized_apply () =
  let net = make_net ~switches:8 ~seed:5 in
  let mode = Plan.Randomized (Prng.create 17) in
  let session = Pipeline.create ~mode net in
  let edits = churn_batch (Prng.create 23) net ~ops:2 in
  let session', patch = Pipeline.apply session edits in
  check_bool "patch non-empty" false (Plan.patch_is_empty patch);
  check_int "epoch" 1 (Pipeline.epoch session');
  check_bool "rule graph = scratch build" true
    (Fixtures.same_rulegraph (Pipeline.rulegraph session')
       (Rulegraph.Rule_graph.build net));
  let plan = Pipeline.plan session' in
  check_bool "still randomized" true
    (match plan.Plan.mode with Plan.Randomized _ -> true | Plan.Static -> false);
  let report = Certify.run ~seed:11 plan in
  if not (Certify.ok_report report) then
    Alcotest.fail (Format.asprintf "%a" Certify.pp report)

let test_edit_error_on_missing_id () =
  let net = make_net ~switches:8 ~seed:1 in
  let session = Pipeline.create net in
  match Pipeline.apply session [ Edits.Remove 999_999 ] with
  | exception Pipeline.Edit_error _ -> ()
  | _ -> Alcotest.fail "missing entry id accepted"

(* ------------------------------------------------------------------ *)
(* Mutation negatives: a corrupted patch must not certify. The checker
   is pure accounting over the before/after probe multisets, so every
   mutation below breaks one of its identities. *)

let fails_with ~name before patch after =
  let report = Certify.run_patch ~seed:11 ~before ~patch after in
  check_bool name false (Certify.ok_report report)

let test_rejects_dropped_added () =
  let before, patch, after = apply_once ~seed:5 ~ops:2 () in
  match patch.Plan.added with
  | [] -> Alcotest.fail "churn produced no added probes"
  | _ :: rest ->
      fails_with ~name:"dropped added probe rejected" before
        { patch with Plan.added = rest }
        after

let test_rejects_dropped_removed () =
  let before, patch, after = apply_once ~seed:5 ~ops:2 () in
  match patch.Plan.removed with
  | [] -> Alcotest.fail "churn produced no removed probes"
  | _ :: rest ->
      fails_with ~name:"dropped removed probe rejected" before
        { patch with Plan.removed = rest }
        after

let test_rejects_corrupted_header () =
  let before, patch, after = apply_once ~seed:5 ~ops:2 () in
  match patch.Plan.added with
  | [] -> Alcotest.fail "churn produced no added probes"
  | p :: rest ->
      let s = Hspace.Header.to_string p.Probe.header in
      let flipped =
        String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) s
      in
      let p' = { p with Probe.header = Hspace.Header.of_string flipped } in
      fails_with ~name:"corrupted header rejected" before
        { patch with Plan.added = p' :: rest }
        after

let test_rejects_phantom_removed () =
  let before, patch, after = apply_once ~seed:5 ~ops:2 () in
  match before with
  | [] -> Alcotest.fail "empty before-plan"
  | p :: _ ->
      (* Claim a probe that survived untouched was removed: the
         survivor multisets no longer agree. *)
      let survivor =
        List.find_opt
          (fun (q : Probe.t) ->
            not (List.exists (fun (r : Probe.t) -> r.Probe.id = q.Probe.id)
                   (patch.Plan.removed
                   @ List.map fst patch.Plan.rewritten)))
          before
      in
      let victim = Option.value survivor ~default:p in
      fails_with ~name:"phantom removal rejected" before
        { patch with Plan.removed = victim :: patch.Plan.removed }
        after

let () =
  Alcotest.run "pipeline"
    [
      ( "identity",
        [
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "patch certifies" `Quick test_patch_certifies;
          Alcotest.test_case "edit error" `Quick test_edit_error_on_missing_id;
          Alcotest.test_case "generation_s covers create" `Quick
            test_generation_s_covers_create;
          Alcotest.test_case "randomized apply" `Quick test_randomized_apply;
          test_churn_identity;
        ] );
      ( "mutation-negatives",
        [
          Alcotest.test_case "dropped added" `Quick test_rejects_dropped_added;
          Alcotest.test_case "dropped removed" `Quick test_rejects_dropped_removed;
          Alcotest.test_case "corrupted header" `Quick test_rejects_corrupted_header;
          Alcotest.test_case "phantom removed" `Quick test_rejects_phantom_removed;
        ] );
    ]
