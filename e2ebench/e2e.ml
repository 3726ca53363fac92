(* End-to-end localization benchmark: one workload per process.

   The operator's path on generated inputs, over a fixed corpus of
   topologies per workload: generate a policy, plan its probes, then for
   each of a few fault draws bring up a data plane, detect until the
   injected faults are flagged (or the round budget runs out) and check
   the flagged set against the truth. The run seed draws the faults, the
   link loss and the churn; the topologies are the same in every run, so
   runs of different seeds plan the same policies. Every topology runs
   [passes] times; with --trace 1 its last pass is traced instead, with
   spans around each layer's public entry points, and the traced pass's
   outputs are checked against the plain ones. The work per run does not
   depend on how fast it goes; --seconds is the budget it was sized for,
   and a run that overruns it says so on standard error.

   Usage:
     e2e.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR

   The last line of standard output is one JSON object with the
   metrics, the checks and the seeds used. *)

module H = E2e_harness.Harness
module J = Sdn_util.Json
module N = Openflow.Network
module FE = Openflow.Flow_entry
module RG = Rulegraph.Rule_graph
module Config = Sdnprobe.Config
module Report = Sdnprobe.Report
module Plan = Sdnprobe.Plan
module Prng = Sdn_util.Prng
module Edits = Sdn_util.Edits

(* ------------------------------------------------------------------ *)
(* Workloads *)

type kind = Flat | Sharded | Over_wire | Churn

type workload = {
  name : string;
  kind : kind;
  switches : int;
  loss : float;  (** seeded per-link loss probability *)
  config : Config.t;
  topologies : int;  (** topologies planned per run *)
  draws : int;  (** fault draws detected on each planned topology *)
  passes : int;
      (** runs of each topology on identical inputs; each timing keeps
          its least value, since interference from other work on the host
          only ever adds time (the repository's min-of-N protocol) *)
  setup_topologies : int;
      (** topologies whose set-up is timed: the planned ones and, past
          [topologies], set-up-only ones, so [setup_s] is a median over
          more inputs than the planning metrics *)
}

(* Timings are process CPU time wherever one domain does all the work,
   so time the host spends running other work does not count. The wire
   backend answers probes from a second domain over sockets, so wire50
   reads the wall clock. Either is then read at the reference host speed
   (see [speed]). *)
let reading w (c : H.clock) =
  match w.kind with Over_wire -> c.H.wall | Flat | Sharded | Churn -> c.H.cpu

let rounds = 150

let fault_fraction = 0.02

(* Remove-then-reinstall pairs absorbed per churn30 instance, one pair
   (two edit ops) per batch. *)
let churn_batches = 16

let workloads =
  [
    {
      name = "flat50-lossy";
      kind = Flat;
      switches = 50;
      loss = 0.02;
      config = Config.(resilient |> with_max_rounds rounds |> with_domains 1);
      topologies = 5;
      draws = 2;
      passes = 2;
      setup_topologies = 8;
    };
    {
      name = "shard500";
      kind = Sharded;
      switches = 500;
      loss = 0.;
      config = Config.make ~domains:1 ~max_rounds:rounds ();
      topologies = 1;
      draws = 2;
      passes = 2;
      setup_topologies = 1;
    };
    {
      name = "wire50";
      kind = Over_wire;
      switches = 50;
      loss = 0.;
      config = Config.make ~domains:1 ~max_rounds:rounds ~backend:Config.Wire ();
      topologies = 4;
      draws = 1;
      passes = 2;
      setup_topologies = 8;
    };
    {
      name = "churn30";
      kind = Churn;
      switches = 30;
      loss = 0.;
      config = Config.make ~domains:1 ~max_rounds:rounds ();
      topologies = 5;
      draws = 3;
      passes = 3;
      setup_topologies = 12;
    };
  ]

(* The networks of a workload are a fixed corpus: instance [i] builds
   its topology and policy from seed 1000 * (1 + 1000 * i) + n whatever
   the run seed, so instance 0 is Topogen.Preset.scale and every run
   plans the same policies. The run seed [s] draws what varies between
   runs: instance [i]'s faults use 1000 * (s + 1000 * i) + n + 1, its
   impairment + 2 and its churn + 7919, so run seed 1 injects on each
   topology the faults [sdnprobe detect/edits --seed] would. *)
let draw_seed w ~seed ~instance = (1000 * (seed + (1000 * instance))) + w.switches

let topo_seed w ~instance = draw_seed w ~seed:1 ~instance

(* Draw [j] of topology [i] shifts the run seed by 1,000,000 * j, so
   draw 0 is the one above. *)
let draw_seeds w ~seed ~instance =
  List.init w.draws (fun j -> draw_seed w ~seed:(seed + (1_000_000 * j)) ~instance)

(* ------------------------------------------------------------------ *)
(* Optional tracing *)

let span tr name f =
  match tr with None -> f () | Some t -> H.with_span ~attrs:H.boundary t name f

(* ------------------------------------------------------------------ *)
(* Set-up: the policy first, the data plane (faults, impairment, probe
   backend) right before each detection, so planning never shares the
   process with the wire backend's service domain. *)

let generate ?tr w ~topo_seed =
  span tr "topogen.generate" (fun () ->
      let rng = Prng.create topo_seed in
      let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:w.switches () in
      if w.switches > 50 then
        Topogen.Rule_gen.install
          ~spec:(Topogen.Rule_gen.scaled_spec ~n_switches:w.switches ())
          rng topo
      else Topogen.Rule_gen.install rng topo)

type dataplane = { truth : int list; backend : Sdnprobe.Backend.t; wire : Wire.t option }

let bring_up ?tr w net ~draw_seed =
  let emulator, truth =
    span tr "dataplane.inject_faults" (fun () ->
        let emulator = Dataplane.Emulator.create net in
        let truth =
          Experiments.Workloads.inject
            (Prng.create (draw_seed + 1))
            ~kind:Experiments.Workloads.Drop_only ~fraction:fault_fraction emulator
        in
        if w.loss > 0. then
          Dataplane.Emulator.set_impairment emulator
            (Dataplane.Impairment.create
               (Dataplane.Impairment.spec ~seed:(draw_seed + 2) ~loss_rate:w.loss ()));
        (emulator, truth))
  in
  let backend, wire =
    match w.kind with
    | Over_wire ->
        span tr "wire.create" (fun () ->
            let wire = Wire.create emulator in
            (Wire.backend wire, Some wire))
    | Flat | Sharded | Churn ->
        span tr "backend.of_emulator" (fun () -> (Sdnprobe.Backend.of_emulator emulator, None))
  in
  { truth; backend; wire }

let tear_down ?tr dp =
  Option.iter (fun wire -> span tr "wire.close" (fun () -> Wire.close wire)) dp.wire

(* Every pass starts from a collected heap, outside its timed phases,
   so the garbage of the pass before it is not paid for inside this one
   (an operator's fresh process has none). *)
let collect () = Gc.full_major ()

(* Collects, then times the host-speed kernel twice into [samples]. *)
let settle samples =
  collect ();
  for _ = 1 to 2 do
    samples := H.kernel_s () :: !samples
  done

(* The factor that reads times taken while [samples] were drawn at the
   reference speed, and the kernel's median time. *)
let speed samples =
  let k = H.median !samples in
  (H.reference_kernel_s /. k, k)

(* Set-up alone, on a topology that is not planned: policy generation
   plus data-plane bring-up, as timed in a full pass. *)
let setup_only w ~topo_seed ~draw_seed =
  let samples = ref [] in
  settle samples;
  let net, topo_c = H.measure (fun () -> generate w ~topo_seed) in
  let dp, up_c = H.measure (fun () -> bring_up w net ~draw_seed) in
  tear_down dp;
  settle samples;
  H.scale (fst (speed samples)) (H.add topo_c up_c)

(* ------------------------------------------------------------------ *)
(* Planning *)

type plan = Flat_plan of Plan.t * Pipeline.t option | Shard_plan of Shard.Splan.t

let probes = function
  | Flat_plan (p, _) -> p.Plan.probes
  | Shard_plan s -> s.Shard.Splan.probes

let probe_repr (p : Sdnprobe.Probe.t) =
  ( p.id,
    p.rules,
    Hspace.Header.to_string p.header,
    Hspace.Header.to_string p.expected_header,
    p.inject_switch,
    p.terminal_switch,
    p.terminal_rule )

let same_probes a b = List.map probe_repr a = List.map probe_repr b

(* The stages of [Pipeline.create], called the way it calls them. *)
let staged_plan tr net =
  let rg = span tr "rulegraph.build" (fun () -> RG.build net) in
  let memo = Mlpc.Headers.memo_create () in
  let key (p : Mlpc.Cover.path) =
    List.map (fun v -> (RG.vertex_entry rg v).FE.id) p.Mlpc.Cover.rules
  in
  let cover = span tr "mlpc.solve" (fun () -> Mlpc.Legal_matching.solve rg) in
  let assigned =
    span tr "mlpc.headers" (fun () ->
        Mlpc.Headers.assign ~memo ~key Mlpc.Headers.Sat_unique cover)
  in
  let probes =
    span tr "plan.lower" (fun () -> Plan.probes_of_assignment net rg assigned)
  in
  { Plan.network = net; rulegraph = rg; cover; probes; generation_s = 0.; mode = Plan.Static }

let plan ?tr w net =
  match (w.kind, tr) with
  | Sharded, _ -> Shard_plan (span tr "shard.splan_create" (fun () -> Shard.Splan.create net))
  | (Flat | Over_wire | Churn), None ->
      let session = Pipeline.create net in
      Flat_plan (Pipeline.plan session, Some session)
  | (Flat | Over_wire | Churn), Some _ -> Flat_plan (staged_plan tr net, None)

(* ------------------------------------------------------------------ *)
(* Detection *)

let detect w dp backend plan =
  let stop = Sdnprobe.Runner.stop_when_flagged dp.truth in
  match plan with
  | Flat_plan (p, _) -> Sdnprobe.Runner.execute_on ~stop ~config:w.config ~backend p
  | Shard_plan s ->
      Sdnprobe.Runner.execute_probes ~stop ~name:"sharded-sdnprobe"
        ~region_of:(Shard.Splan.region_of s) ~config:w.config ~backend
        ~generation_s:s.Shard.Splan.generation_s s.Shard.Splan.probes

(* ------------------------------------------------------------------ *)
(* Churn: remove-then-reinstall batches, victims drawn from the live
   table without replacement within a batch. *)

let churn_batch rng net =
  let entries = Array.of_list (N.all_entries net) in
  let victim = entries.(Prng.int rng (Array.length entries)) in
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
  ]

type churn = {
  batches : int;  (** absorbed, over every pass that churned *)
  apply_s : float list;  (** per batch, in order *)
  patch_probes : int list;  (** added + removed + rewritten per batch *)
  failed_batches : int;
}

(* Absorb [churn_batches] batches, then compare the session with a
   scratch plan of the mutated network (outside the timed region). *)
let churn ?tr net session ~draw_seed =
  let rng = Prng.create (draw_seed + 7919) in
  let rec loop session b acc =
    if b > churn_batches then (Some session, acc)
    else
      let edits = churn_batch rng net in
      let t0 = H.now () in
      match span tr "pipeline.apply" (fun () -> Pipeline.apply session edits) with
      | session', patch ->
          let dt = H.now () -. t0 in
          let n =
            List.length patch.Plan.added + List.length patch.Plan.removed
            + List.length patch.Plan.rewritten
          in
          loop session' (b + 1) ((dt, n) :: acc)
      | exception (Pipeline.Edit_error _ | RG.Cyclic_policy _) -> (None, acc)
  in
  let final, acc = span tr "apply" (fun () -> loop session 1 []) in
  let acc = List.rev acc in
  let contract_ok =
    match final with
    | None -> false
    | Some s ->
        same_probes (Pipeline.plan s).Plan.probes
          (Pipeline.plan (Pipeline.create net)).Plan.probes
  in
  {
    batches = churn_batches;
    apply_s = List.map fst acc;
    patch_probes = List.map snd acc;
    failed_batches = (if contract_ok then 0 else churn_batches);
  }

(* ------------------------------------------------------------------ *)
(* One instance *)

type instance = {
  topo_seed : int;
  draw_seed : int;
  passes : int;
  scale : float;  (** host-speed factor applied to the first pass's timings *)
  kernel_s : float;  (** host-speed kernel time, median over passes *)
  setup : H.clock;
  plan : H.clock;
  detect : H.clock;
  localize : H.clock;  (** plan + detect of one pass *)
  detect_delay_s : float;
  report : Report.t;  (** of the first pass *)
  reports : Report.t list;  (** of every pass *)
  truth : int list;
  switches : int;
  missed : int;  (** faulty switches not flagged *)
  false_flags : int;  (** healthy switches flagged *)
  churn : churn option;
  plan_probes_list : Sdnprobe.Probe.t list;
  splan : Shard.Splan.t option;
}

let diff a b = List.filter (fun x -> not (List.mem x b)) a

let fi = float_of_int

let least f xs = List.fold_left (fun a x -> Float.min a (f x)) infinity xs

(* One pass of the operator's path on one topology: generate the
   policy, plan it, then for each fault draw bring up a fresh data plane
   and detect; for churn30 the session then absorbs the edit batches.
   Gives one instance per draw, all sharing the topology's plan (the
   churn goes with the first). Only the first pass churns: the apply
   batches are per-layer figures and need no repeats, and they would
   crowd out the repeats of planning and detection. *)
let run_topology ?tr ?stats ?(churns = true) w ~topo_seed ~draw_seeds =
  let samples = ref [] in
  settle samples;
  let net, topo_c = H.measure (fun () -> generate ?tr w ~topo_seed) in
  let p, plan_c = H.measure (fun () -> span tr "plan" (fun () -> plan ?tr w net)) in
  let detections =
    List.map
      (fun draw_seed ->
        settle samples;
        let dp, up_c = H.measure (fun () -> bring_up ?tr w net ~draw_seed) in
        let report, detect_c =
          Fun.protect
            ~finally:(fun () -> tear_down ?tr dp)
            (fun () ->
              let backend =
                match (tr, stats) with
                | Some t, Some st -> H.wrap_backend t st dp.backend
                | _ -> dp.backend
              in
              H.measure (fun () -> span tr "detect" (fun () -> detect w dp backend p)))
        in
        (draw_seed, up_c, dp.truth, report, detect_c))
      draw_seeds
  in
  let k, kernel_s = speed samples in
  let churn =
    match (w.kind, p) with
    | Churn, _ when not churns -> None
    | Churn, Flat_plan (_, Some session) ->
        Some (churn ?tr net session ~draw_seed:(List.hd draw_seeds))
    | Churn, Flat_plan (_, None) ->
        (* Traced runs plan by stages; the session that absorbs the
           churn is built outside the plan span. *)
        let session = span tr "pipeline.create" (fun () -> Pipeline.create net) in
        Some (churn ?tr net session ~draw_seed:(List.hd draw_seeds))
    | _ -> None
  in
  List.mapi
    (fun j (draw_seed, up_c, truth, report, detect_c) ->
      let flagged = Report.flagged_switches report in
      {
        topo_seed;
        draw_seed;
        passes = 1;
        scale = k;
        kernel_s;
        setup = H.scale k (H.add topo_c up_c);
        plan = H.scale k plan_c;
        detect = H.scale k detect_c;
        localize = H.scale k (H.add plan_c detect_c);
        detect_delay_s = report.Report.duration_s;
        report;
        reports = [ report ];
        truth;
        switches = w.switches;
        missed = List.length (diff truth flagged);
        false_flags = List.length (diff flagged truth);
        churn = (if j = 0 then churn else None);
        plan_probes_list = probes p;
        splan = (match p with Shard_plan s -> Some s | Flat_plan _ -> None);
      })
    detections

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* Passes of one instance: each timing is the least over the passes,
   accuracy counts every pass, the first pass's report stands for the
   instance. *)
let combine = function
  | [] -> invalid_arg "combine: no passes"
  | first :: _ as ps ->
      let least f = least f ps in
      let least_clock f =
        { H.wall = least (fun p -> (f p).H.wall); cpu = least (fun p -> (f p).H.cpu) }
      in
      let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
      let churns = List.filter_map (fun p -> p.churn) ps in
      let churn =
        Option.map
          (fun c ->
            {
              c with
              apply_s =
                List.mapi
                  (fun b _ ->
                    List.fold_left
                      (fun a c' ->
                        match List.nth_opt c'.apply_s b with
                        | Some x -> Float.min a x
                        | None -> a)
                      infinity churns)
                  c.apply_s;
              batches = List.fold_left (fun a c' -> a + c'.batches) 0 churns;
              failed_batches = List.fold_left (fun a c' -> a + c'.failed_batches) 0 churns;
            })
          first.churn
      in
      {
        first with
        passes = List.length ps;
        kernel_s = H.median (List.map (fun p -> p.kernel_s) ps);
        setup = least_clock (fun p -> p.setup);
        plan = least_clock (fun p -> p.plan);
        detect = least_clock (fun p -> p.detect);
        localize = least_clock (fun p -> p.localize);
        detect_delay_s = least (fun p -> p.detect_delay_s);
        reports = List.concat_map (fun p -> p.reports) ps;
        missed = sum (fun p -> p.missed);
        false_flags = sum (fun p -> p.false_flags);
        churn;
      }

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let med f xs = H.median (List.map f xs)

let ratio a b = if b = 0. then 0. else a /. b

let heap_mb () =
  fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.

(* Switch verdicts and churn batches, and how many of them were wrong
   (fail_ratio). *)
let verdicts insts =
  List.fold_left
    (fun (a, f) i ->
      let a = a + (i.passes * i.switches) and f = f + i.missed + i.false_flags in
      match i.churn with
      | None -> (a, f)
      | Some c -> (a + c.batches, f + c.failed_batches))
    (0, 0) insts

(* Operations, and how many failed (the result line): a localization,
   one detection pass, fails when its flagged set is not the injected
   truth; a churn batch fails when the session breaks the incremental
   contract. *)
let operations insts =
  List.fold_left
    (fun (a, f) i ->
      let wrong r =
        let flagged = Report.flagged_switches r in
        diff flagged i.truth <> [] || diff i.truth flagged <> []
      in
      let a = a + i.passes and f = f + List.length (List.filter wrong i.reports) in
      match i.churn with
      | None -> (a, f)
      | Some c -> (a + c.batches, f + c.failed_batches))
    (0, 0) insts

(* [setup] holds the set-up time of every timed topology, planned or
   set-up-only. *)
let end_to_end ~time ~setup insts =
  [
    m "setup_s" "s" (H.median (List.map time setup));
    m "plan_s" "s" (med (fun i -> time i.plan) insts);
    m "detect_s" "s" (med (fun i -> time i.detect) insts);
    m "localize_s" "s" (med (fun i -> time i.localize) insts);
    m "probes_per_s" "1/s" (med (fun i -> fi i.report.Report.packets_sent /. time i.detect) insts);
    m "plan_probes" "count" (med (fun i -> fi (List.length i.plan_probes_list)) insts);
    m "packets_sent" "count" (med (fun i -> fi i.report.Report.packets_sent) insts);
    m "detect_delay_s" "s" (med (fun i -> i.detect_delay_s) insts);
  ]

let apply_samples_ms insts =
  List.concat_map
    (fun i -> match i.churn with Some c -> List.map (fun s -> s *. 1000.) c.apply_s | None -> [])
    insts

let tail_json = function
  | None -> J.Null
  | Some (t : H.tail) ->
      J.Obj
        [
          ("percentile", J.Float t.pct);
          ("value", J.Float t.value);
          ("beyond", J.Int t.beyond);
          ("samples", J.Int t.samples);
        ]

(* Per-layer figures of one traced instance, read off its spans. Times
   are read at the reference host speed, as the end-to-end ones are. *)
let layer_of_trace (spans : H.span list) ~run (i : instance) (st : H.backend_stats)
    ~untraced_localize_s =
  let mine = List.filter (fun (s : H.span) -> s.run = run) spans in
  let named n = List.filter (fun (s : H.span) -> s.name = n) mine in
  let total n = List.fold_left (fun a s -> a +. H.duration s) 0. (named n) in
  let one n = match named n with s :: _ -> Some s | [] -> None in
  let attr n k =
    List.fold_left
      (fun a (s : H.span) -> a +. Option.value ~default:0. (List.assoc_opt k s.attrs))
      0. (named n)
  in
  let plan_span = Option.get (one "plan") and detect_span = Option.get (one "detect") in
  let plan_s = H.duration plan_span and detect_s = H.duration detect_span in
  let plan_self = H.self_time mine plan_span and runner_self = H.self_time mine detect_span in
  let packets = fi i.report.Report.packets_sent in
  let shard_full = total "shard.splan_create" in
  let shard_structural = total "shard.structural" in
  let headers_s =
    match i.splan with None -> total "mlpc.headers" | Some _ -> shard_full -. shard_structural
  in
  let hit_ratio cache =
    let k s = Printf.sprintf "rulegraph.cache.%s.%s" cache s in
    let sum key = attr "plan" key +. attr "apply" key in
    ratio (sum (k "hits")) (sum (k "hits") +. sum (k "misses"))
  in
  let patch_probes = match i.churn with Some c -> c.patch_probes | None -> [] in
  let med_or_zero = function [] -> 0. | xs -> H.median xs in
  let stats = Option.map (fun (s : Shard.Splan.t) -> s.Shard.Splan.stats) i.splan in
  let stat f = match stats with Some s -> fi (f s) | None -> 0. in
  let attempt_s = total "backend.attempt" and batch_s = total "backend.send_batch" in
  let traps_s = total "backend.install_traps" +. total "backend.remove_traps" in
  let gc phase =
    [
      m (Printf.sprintf "gc.%s.minor_collections" phase) "count" (attr phase "gc.minor_collections");
      m (Printf.sprintf "gc.%s.major_collections" phase) "count" (attr phase "gc.major_collections");
      m (Printf.sprintf "gc.%s.promoted_words" phase) "words" (attr phase "gc.promoted_words");
    ]
  in
  List.map
    (fun x -> if x.unit_ = "s" then { x with value = x.value *. i.scale } else x)
  @@ [
    m "topogen.generate_s" "s" (total "topogen.generate");
    m "dataplane.inject_faults_s" "s" (total "dataplane.inject_faults");
    m "rulegraph.build_s" "s" (total "rulegraph.build");
    m "rulegraph.cache.start.hit_ratio" "ratio" (hit_ratio "start");
    m "rulegraph.cache.forward.hit_ratio" "ratio" (hit_ratio "forward");
    m "rulegraph.cache.legal.hit_ratio" "ratio" (hit_ratio "legal");
    m "rulegraph.cache.inject.hit_ratio" "ratio" (hit_ratio "inject");
    m "mlpc.solve_s" "s" (total "mlpc.solve");
    m "mlpc.headers_s" "s" (total "mlpc.headers");
    m "plan.lower_s" "s" (total "plan.lower");
    m "shard.partition_s" "s" (total "shard.partition");
    m "shard.structural_s" "s" shard_structural;
    m "shard.headers_s" "s" (if i.splan = None then 0. else headers_s);
    m "shard.regions" "count" (stat (fun s -> s.Shard.Splan.regions));
    m "shard.chains" "count" (stat (fun s -> s.Shard.Splan.chains));
    m "shard.stitched" "count" (stat (fun s -> s.Shard.Splan.stitched));
    m "runner.self_s" "s" runner_self;
    m "runner.rounds" "count" (fi i.report.Report.rounds);
    m "runner.retx_ratio" "ratio" (ratio (fi i.report.Report.retransmissions) packets);
    m "runner.alloc_words_per_send" "words" (ratio (attr "detect" "gc.allocated_words") packets);
    m "backend.attempts" "count" (fi st.attempts);
    m "backend.attempt_s" "s" attempt_s;
    m "backend.traps_s" "s" traps_s;
    m "wire.batch_s" "s" batch_s;
    m "wire.batch_probes" "count" (fi st.batch_probes);
    m "wire.echo_ratio" "ratio" (ratio (fi st.batch_echoes) (fi st.batch_probes));
    m "wire.create_s" "s" (total "wire.create");
    m "wire.close_s" "s" (total "wire.close");
    m "pipeline.apply_s" "s" (med_or_zero (List.map H.duration (named "pipeline.apply")));
    m "pipeline.patch_probes" "count" (med_or_zero (List.map fi patch_probes));
    m "trace.plan_s" "s" plan_s;
    m "trace.detect_s" "s" detect_s;
    m "trace.overhead_s" "s" (plan_s +. detect_s -. (untraced_localize_s /. i.scale));
    m "plan.unattributed_s" "s" plan_self;
    m "plan.unattributed_share" "ratio" (ratio plan_self plan_s);
    m "detect.unattributed_share" "ratio" (ratio runner_self detect_s);
    m "plan.headers_share" "ratio" (ratio headers_s plan_s);
    m "detect.traps_share" "ratio" (ratio traps_s detect_s);
  ]
  @ gc "plan" @ gc "detect" @ gc "apply"

(* ------------------------------------------------------------------ *)
(* Main *)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun (w : workload) -> w.name = get "workload") workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ get "workload");
        exit 2
  in
  let seed = int_of "seed" and seconds = float_of_int (int_of "seconds") in
  let traced = int_of "trace" = 1 in
  let out = get "out" in
  let t_start = H.now () in
  let trace = H.trace_create () in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  (* Round-robin passes: pass r of every topology runs before pass r + 1
     of any, so the passes of one instance are spread over the run rather
     than caught together in one burst of interference. A traced run
     traces its last pass, so it does the same work as an untraced one. *)
  let plain_passes = if traced then w.passes - 1 else w.passes in
  let seeds =
    List.init w.setup_topologies (fun k ->
        (topo_seed w ~instance:k, draw_seeds w ~seed ~instance:k))
  in
  let planned = List.filteri (fun k _ -> k < w.topologies) seeds in
  let setup_seeds =
    List.filteri (fun k _ -> k >= w.topologies) seeds
    |> List.map (fun (topo_seed, draws) -> (topo_seed, List.hd draws))
  in
  let pass_results =
    List.init plain_passes (fun r ->
        let full =
          List.concat_map
            (fun (topo_seed, draw_seeds) ->
              run_topology ~churns:(r = 0) w ~topo_seed ~draw_seeds)
            planned
        in
        ( full,
          List.map
            (fun (topo_seed, draw_seed) -> setup_only w ~topo_seed ~draw_seed)
            setup_seeds ))
  in
  let insts =
    List.mapi
      (fun k _ ->
        let runs = List.map (fun (full, _) -> List.nth full k) pass_results in
        let plain = combine runs in
        if w.kind <> Over_wire then
          check "passes on identical inputs agree"
            (List.for_all (fun r -> same_probes r.plan_probes_list plain.plan_probes_list) runs
            && List.for_all
                 (fun r ->
                   Report.to_json { r with Report.generation_s = 0. }
                   = Report.to_json { plain.report with Report.generation_s = 0. })
                 plain.reports);
        plain)
      (fst (List.hd pass_results))
  in
  let setup =
    List.map (fun (i : instance) -> i.setup) insts
    @ List.mapi
        (fun j _ ->
          let pick f = least (fun (_, s) -> f (List.nth s j)) pass_results in
          { H.wall = pick (fun c -> c.H.wall); cpu = pick (fun c -> c.H.cpu) })
        setup_seeds
  in
  let traced_pass k (plain : instance) =
    H.set_run trace k;
    let st = H.stats_create () in
    let topo_seed = plain.topo_seed and draw_seed = plain.draw_seed in
    (* Shard plans are split by timing the partition and the structural
       build (no headers) on their own. *)
    if w.kind = Sharded then begin
      let net = generate w ~topo_seed in
      ignore
        (H.with_span trace "shard.partition" (fun () -> Shard.Partition.make (N.topology net)));
      ignore
        (H.with_span trace "shard.structural" (fun () ->
             Shard.Splan.create ~assign_headers:false net))
    end;
    let traced_inst =
      List.hd (run_topology ~tr:trace ~stats:st w ~topo_seed ~draw_seeds:[ draw_seed ])
    in
    check "traced plan equals the untraced plan"
      (same_probes traced_inst.plan_probes_list plain.plan_probes_list);
    if w.kind <> Over_wire then begin
      let r1 = plain.report and r2 = traced_inst.report in
      check "traced report equals the untraced report"
        (Report.flagged_switches r1 = Report.flagged_switches r2
        && r1.Report.packets_sent = r2.Report.packets_sent
        && r1.Report.rounds = r2.Report.rounds)
    end;
    layer_of_trace (H.spans trace) ~run:k traced_inst st ~untraced_localize_s:plain.localize.H.wall
  in
  (* The traced pass runs each topology's first draw. *)
  let layers =
    if traced then List.mapi traced_pass (List.filteri (fun k _ -> k mod w.draws = 0) insts)
    else []
  in
  let attempted, failed = operations insts in
  let verdicts_seen, verdicts_wrong = verdicts insts in
  let apply_ms = apply_samples_ms insts in
  let apply_p50 = match apply_ms with [] -> 0. | xs -> H.median xs in
  let apply_tail = H.tail apply_ms in
  let fail_ratio = ratio (fi verdicts_wrong) (fi verdicts_seen) in
  let per_layer =
    match layers with
    | [] -> []
    | first :: _ ->
        List.map
          (fun (fm : metric) ->
            let values =
              List.map
                (fun figs -> (List.find (fun (x : metric) -> x.name = fm.name) figs).value)
                layers
            in
            { fm with value = H.median values })
          first
        @ [
            m "pipeline.apply_p50_ms" "ms" apply_p50;
            m "pipeline.apply_tail_ms" "ms"
              (match apply_tail with Some t -> t.H.value | None -> 0.);
            m "fail_ratio" "ratio" fail_ratio;
            m "peak_heap_mb" "MB" (heap_mb ());
            m "host.kernel_ms" "ms" (1000. *. med (fun i -> i.kernel_s) insts);
          ]
  in
  let e2e = end_to_end ~time:(reading w) ~setup insts in
  let elapsed = H.now () -. t_start in
  let overrun = elapsed > seconds in
  if overrun then
    Printf.eprintf "e2e: %s took %.1f s, over its %.0f s budget\n%!" w.name elapsed seconds;
  let metrics = if traced then per_layer else e2e in
  if traced then
    H.write_jsonl (Filename.concat out (Printf.sprintf "%s-seed%d.spans.jsonl" w.name seed))
      (H.spans trace);
  let failed_checks = List.filter (fun (_, ok) -> not ok) (List.rev !checks) in
  let metric_json (x : metric) =
    (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit_) ])
  in
  let result =
    J.Obj
      [
        ("workload", J.Str w.name);
        ("seed", J.Int seed);
        ("trace", J.Bool traced);
        ("correct", J.Bool (failed_checks = []));
        ("failed_checks", J.List (List.map (fun (n, _) -> J.Str n) failed_checks));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("fail_ratio", J.Float fail_ratio);
        ("verdicts", J.Int verdicts_seen);
        ("wrong_verdicts", J.Int verdicts_wrong);
        ("metrics", J.Obj (List.map metric_json metrics));
        ("end_to_end", J.Obj (List.map metric_json e2e));
        ( "clocks",
          J.Obj
            (List.map
               (fun (n, time) -> (n, J.Obj (List.map metric_json (end_to_end ~time ~setup insts))))
               [ ("wall", fun (c : H.clock) -> c.H.wall); ("cpu", fun (c : H.clock) -> c.H.cpu) ]) );
        ( "instances",
          J.List
            (List.map
               (fun i ->
                 J.Obj
                   [
                     ("topology_seed", J.Int i.topo_seed);
                     ("fault_seed", J.Int (i.draw_seed + 1));
                     ("impairment_seed", J.Int (i.draw_seed + 2));
                     ("churn_seed", J.Int (i.draw_seed + 7919));
                     ("setup_s", J.Float (reading w i.setup));
                     ("plan_s", J.Float (reading w i.plan));
                     ("detect_s", J.Float (reading w i.detect));
                     ("kernel_ms", J.Float (i.kernel_s *. 1000.));
                     ("plan_probes", J.Int (List.length i.plan_probes_list));
                     ("packets_sent", J.Int i.report.Report.packets_sent);
                     ("rounds", J.Int i.report.Report.rounds);
                     ("truth", J.List (List.map (fun s -> J.Int s) i.truth));
                     ( "flagged",
                       J.List (List.map (fun s -> J.Int s) (Report.flagged_switches i.report)) );
                     ("missed", J.Int i.missed);
                     ("false_flags", J.Int i.false_flags);
                   ])
               insts) );
        ( "setup_only_seeds",
          J.List
            (List.map
               (fun (ts, ds) ->
                 J.Obj
                   [
                     ("topology_seed", J.Int ts);
                     ("fault_seed", J.Int (ds + 1));
                     ("impairment_seed", J.Int (ds + 2));
                   ])
               setup_seeds) );
        ("passes", J.Int w.passes);
        ("traced_passes", J.Int (if traced then 1 else 0));
        ("elapsed_s", J.Float elapsed);
        ("overrun", J.Bool overrun);
        ("peak_heap_mb", J.Float (heap_mb ()));
        ("apply_samples", J.Int (List.length apply_ms));
        ("apply_p50_ms", J.Float apply_p50);
        ("apply_tail", tail_json apply_tail);
        ("ocaml_version", J.Str Sys.ocaml_version);
        ("domains", J.Int w.config.Config.domains);
      ]
  in
  print_endline (J.to_string result)
