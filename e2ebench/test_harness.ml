(* Self-tests of the benchmark's measurement machinery. Run with
     dune build @e2ebench/runtest *)

module H = E2e_harness.Harness

let check_float = Alcotest.(check (float 1e-12))

let tail_of n = H.tail (List.init n (fun i -> float_of_int (i + 1)))

let test_tail () =
  let expect n pct value beyond =
    match tail_of n with
    | None -> Alcotest.failf "%d samples: no tail" n
    | Some t ->
        check_float (Printf.sprintf "%d samples: percentile" n) pct t.H.pct;
        check_float (Printf.sprintf "%d samples: value" n) value t.H.value;
        Alcotest.(check int) (Printf.sprintf "%d samples: beyond" n) beyond t.H.beyond
  in
  (* Highest ladder percentile that leaves at least ten samples above. *)
  expect 1000 99. 990. 10;
  expect 200 95. 190. 10;
  expect 100 90. 90. 10;
  expect 99 75. 75. 24;
  expect 40 75. 30. 10;
  expect 20 50. 10. 10;
  Alcotest.(check bool) "19 samples: none" true (tail_of 19 = None);
  Alcotest.(check bool) "no samples: none" true (H.tail [] = None);
  (* Order of the input does not matter. *)
  Alcotest.(check bool) "shuffled" true
    (H.tail (List.rev (List.init 100 (fun i -> float_of_int (i + 1)))) = tail_of 100)

let test_median () =
  check_float "odd" 2. (H.median [ 3.; 1.; 2. ]);
  check_float "even" 2.5 (H.median [ 4.; 1.; 3.; 2. ])

let span id ?parent start_s stop_s =
  { H.id; name = "s"; parent; run = 0; start_s; stop_s; attrs = [] }

let test_self_time () =
  let parent = span 0 0. 10. in
  let spans =
    [
      parent;
      span 1 ~parent:0 1. 4.;
      span 2 ~parent:0 3. 6.;
      (* overlaps child 1: [1,6] counted once *)
      span 3 ~parent:0 8. 12.;
      (* clipped to the parent's end: [8,10] *)
      span 4 ~parent:1 1.5 2.;
      (* a grandchild is inside its parent already *)
      span 5 ~parent:9 0. 10.;
      (* not a child *)
    ]
  in
  check_float "self = 10 - |[1,6] u [8,10]|" 3. (H.self_time spans parent);
  check_float "leaf self = duration" 0.5 (H.self_time spans (List.nth spans 4));
  check_float "union of nested intervals" 5. (H.union_length [ (0., 5.); (1., 2.); (2., 3.) ]);
  check_float "disjoint union" 3. (H.union_length [ (4., 5.); (0., 2.) ])

let test_clock () =
  let c = H.scale 0.5 { H.wall = 4.; cpu = 2. } in
  check_float "wall scaled" 2. c.H.wall;
  check_float "cpu scaled" 1. c.H.cpu;
  let _, m = H.measure H.speed_kernel in
  Alcotest.(check bool) "kernel takes time on both clocks" true (m.H.wall > 0. && m.H.cpu > 0.)

let test_with_span () =
  let t = H.trace_create () in
  H.with_span t "outer" (fun () -> H.with_span t "inner" (fun () -> ()));
  match H.spans t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first" "inner" inner.H.name;
      Alcotest.(check (option int)) "inner's parent" (Some outer.H.id) inner.H.parent;
      Alcotest.(check (option int)) "outer is a root" None outer.H.parent;
      Alcotest.(check bool) "nested" true
        (outer.H.start_s <= inner.H.start_s && inner.H.stop_s <= outer.H.stop_s)
  | _ -> Alcotest.fail "expected two spans"

let test_names () =
  List.iter
    (fun (n, ok) -> Alcotest.(check bool) n ok (H.valid_name n))
    [
      ("plan_s", true);
      ("rulegraph.cache.start.hit_ratio", true);
      ("flat50-lossy", true);
      ("", false);
      ("a b", false);
      ("a/b", false);
      ("ms%", false);
    ];
  (* Every name BENCHMARK.json declares. *)
  let json =
    match Sdn_util.Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let names key =
    Option.value ~default:[] (Sdn_util.Json.obj_list key json)
    |> List.filter_map (Sdn_util.Json.obj_str "name")
  in
  let all = names "workloads" @ names "end_to_end" @ names "per_layer" in
  Alcotest.(check bool) "BENCHMARK.json lists metrics" true (List.length all > 10);
  List.iter (fun n -> Alcotest.(check bool) n true (H.valid_name n)) all

(* A 16-switch detection run over the wrapped emulator backend gives the
   same report, byte for byte, as over the bare one. *)
let report ~config ~loss ~wrap =
  let _, net = Topogen.Preset.scale ~n_switches:16 in
  let emulator = Dataplane.Emulator.create net in
  let truth =
    Experiments.Workloads.inject (Sdn_util.Prng.create 1017)
      ~kind:Experiments.Workloads.Drop_only ~fraction:0.05 emulator
  in
  if loss > 0. then
    Dataplane.Emulator.set_impairment emulator
      (Dataplane.Impairment.create (Dataplane.Impairment.spec ~seed:1018 ~loss_rate:loss ()));
  let plan = Pipeline.plan (Pipeline.create net) in
  let plan = { plan with Sdnprobe.Plan.generation_s = 0. } in
  let backend = Sdnprobe.Backend.of_emulator emulator in
  let backend =
    if wrap then H.wrap_backend (H.trace_create ()) (H.stats_create ()) backend else backend
  in
  let stop = Sdnprobe.Runner.stop_when_flagged truth in
  Sdnprobe.Report.to_json (Sdnprobe.Runner.execute_on ~stop ~config ~backend plan)

let test_wrap_transparent () =
  List.iter
    (fun (label, config, loss) ->
      Alcotest.(check string) label
        (report ~config ~loss ~wrap:false)
        (report ~config ~loss ~wrap:true))
    [
      ("default config", Sdnprobe.Config.make ~domains:1 (), 0.);
      ( "resilient under 2% loss",
        Sdnprobe.Config.(with_domains 1 resilient),
        0.02 );
    ]

let () =
  Alcotest.run "e2ebench harness"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "clocks and host speed" `Quick test_clock;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_with_span;
        ] );
      ("names", [ Alcotest.test_case "metric names" `Quick test_names ]);
      ("backend", [ Alcotest.test_case "wrap is transparent" `Quick test_wrap_transparent ]);
    ]
