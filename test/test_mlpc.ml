(* Tests for the MLPC solver: the paper's Figure 6 result, structural
   invariants, brute-force minimality on small random networks, and the
   randomized variant's diversity. *)

module RG = Rulegraph.Rule_graph
module Cover = Mlpc.Cover
module LM = Mlpc.Legal_matching
module Headers = Mlpc.Headers
module Hs = Hspace.Hs
module Cube = Hspace.Cube
module Header = Hspace.Header
module FE = Openflow.Flow_entry
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Figure 3 -> Figure 6 *)

let fx = lazy (Fixtures.figure3 ())
let rg = lazy (RG.build (Lazy.force fx).Fixtures.net)

let rule_ids (p : Cover.path) =
  List.map (fun v -> (RG.vertex_entry (Lazy.force rg) v).FE.id) p.Cover.rules

let test_figure6_cover () =
  let f = Lazy.force fx in
  let cover = LM.solve (Lazy.force rg) in
  (* The paper's MLPC (Fig. 6) has exactly 4 test packets. Several
     4-path legal covers exist; the solver must find one of them (the
     exact decomposition depends on augmentation order). *)
  check_int "four paths" 4 (Cover.size cover);
  check_bool "is cover" true (Cover.is_cover (Lazy.force rg) cover);
  check_bool "all legal" true (Cover.all_legal (Lazy.force rg) cover);
  (* One path must use the closure edge b2 -> e2 and expand it through
     c2 (the paper's conversion), since e2 is only reachable via c2 and
     c2 also serves another chain. *)
  let b2 = f.Fixtures.b2.FE.id and c2 = f.Fixtures.c2.FE.id and e2 = f.Fixtures.e2.FE.id in
  check_bool "b2 path expands through c2" true
    (List.exists (fun p -> rule_ids p = [ b2; c2; e2 ]) cover.Cover.paths);
  (* The paper's own decomposition is a legal 4-path cover too. *)
  let v e = RG.vertex_of_entry (Lazy.force rg) e.FE.id in
  List.iter
    (fun path -> check_bool "paper path legal" true (RG.is_legal (Lazy.force rg) path))
    [
      List.map v [ f.Fixtures.a1; f.Fixtures.b1; f.Fixtures.c2; f.Fixtures.e1 ];
      List.map v [ f.Fixtures.b2; f.Fixtures.e2 ];
      List.map v [ f.Fixtures.b3; f.Fixtures.d1; f.Fixtures.e3 ];
      [ v f.Fixtures.c1 ];
    ]

let test_cover_metrics () =
  let cover = LM.solve (Lazy.force rg) in
  check_int "max path length" 3 (Cover.max_path_length cover);
  (* Our minimum cover: chains of expanded lengths 3, 3, 3, 2. *)
  Alcotest.(check (float 1e-9)) "mean length" 2.75 (Cover.mean_path_length cover)

(* ------------------------------------------------------------------ *)
(* Brute force minimality on random small networks *)

(* Minimum legal (vertex-disjoint) path cover by exhaustive search over
   matchings in the closure graph. *)
let brute_min_cover rg =
  let n = RG.n_vertices rg in
  let g = RG.graph rg in
  let testable = Array.init n (fun v -> not (Hs.is_empty (RG.input rg v))) in
  let edges =
    List.concat
      (List.init n (fun u ->
           if testable.(u) then
             List.filter_map
               (fun v -> if testable.(v) then Some (u, v) else None)
               (Sdngraph.Digraph.succ g u)
           else []))
  in
  let n_testable = Array.fold_left (fun a t -> if t then a + 1 else a) 0 testable in
  let succ = Array.make n (-1) and pred = Array.make n (-1) in
  let best = ref 0 in
  let chains_legal () =
    let ok = ref true in
    for head = 0 to n - 1 do
      if testable.(head) && pred.(head) = -1 then begin
        let rec follow v acc =
          let acc = v :: acc in
          if succ.(v) >= 0 then follow succ.(v) acc else List.rev acc
        in
        let chain = follow head [] in
        if not (RG.is_legal rg chain) then ok := false
      end
    done;
    !ok
  in
  let rec go size = function
    | [] -> if chains_legal () then best := max !best size
    | (u, v) :: rest ->
        go size rest;
        if succ.(u) = -1 && pred.(v) = -1 then begin
          succ.(u) <- v;
          pred.(v) <- u;
          go (size + 1) rest;
          succ.(u) <- -1;
          pred.(v) <- -1
        end
  in
  go 0 edges;
  n_testable - !best

let test_minimality_vs_brute_force () =
  let rng = Prng.create 404 in
  let tested = ref 0 in
  for _ = 1 to 40 do
    let net =
      Fixtures.random_line_net rng ~n_switches:(2 + Prng.int rng 2)
        ~rules_per_switch:2 ~header_len:5
    in
    let rg = RG.build net in
    (* Keep brute force tractable. *)
    if RG.n_vertices rg <= 9 then begin
      incr tested;
      let cover = LM.solve rg in
      check_bool "is cover" true (Cover.is_cover rg cover);
      check_bool "all legal" true (Cover.all_legal rg cover);
      check_int "minimum" (brute_min_cover rg) (Cover.size cover)
    end
  done;
  check_bool "enough cases" true (!tested >= 20)

let test_figure3_minimality_brute () =
  check_int "figure3 brute minimum" 4 (brute_min_cover (Lazy.force rg))

(* ------------------------------------------------------------------ *)
(* Structural invariants on larger random networks *)

let test_cover_invariants_random () =
  let rng = Prng.create 911 in
  for _ = 1 to 10 do
    let net =
      Fixtures.random_line_net rng ~n_switches:(3 + Prng.int rng 4)
        ~rules_per_switch:4 ~header_len:8
    in
    let rg = RG.build net in
    let cover = LM.solve rg in
    check_bool "is cover" true (Cover.is_cover rg cover);
    check_bool "all legal" true (Cover.all_legal rg cover);
    (* Paths are vertex-disjoint in matched vertices. *)
    let matched = List.concat_map (fun p -> p.Cover.vertices) cover.Cover.paths in
    check_int "disjoint chains" (List.length matched)
      (List.length (List.sort_uniq compare matched));
    (* Untestable vertices really have empty inputs. *)
    List.iter
      (fun v -> check_bool "untestable" true (Hs.is_empty (RG.input rg v)))
      cover.Cover.untestable
  done

let test_untestable_reported () =
  (* A rule fully shadowed by a higher-priority rule is untestable. *)
  let topo = Openflow.Topology.create ~n_switches:2 in
  Openflow.Topology.add_link topo ~sw_a:0 ~port_a:1 ~sw_b:1 ~port_b:1;
  let net = Openflow.Network.create ~header_len:4 topo in
  let _hi =
    Openflow.Network.add_entry net ~switch:0 ~priority:2 ~match_:(Cube.of_string "1xxx")
      (FE.Output 1)
  in
  let shadowed =
    Openflow.Network.add_entry net ~switch:0 ~priority:1 ~match_:(Cube.of_string "11xx")
      (FE.Output 1)
  in
  let _sink =
    Openflow.Network.add_entry net ~switch:1 ~priority:1 ~match_:(Cube.of_string "xxxx")
      FE.Drop
  in
  let rg = RG.build net in
  let cover = LM.solve rg in
  check_int "one untestable" 1 (List.length cover.Cover.untestable);
  check_int "it is the shadowed rule" shadowed.FE.id
    (RG.vertex_entry rg (List.hd cover.Cover.untestable)).FE.id;
  check_bool "cover still complete" true (Cover.is_cover rg cover)

(* ------------------------------------------------------------------ *)
(* Randomized variant *)

let test_randomized_valid () =
  let rng = Prng.create 5 in
  for seed = 1 to 10 do
    ignore seed;
    let cover = LM.randomized rng (Lazy.force rg) in
    check_bool "is cover" true (Cover.is_cover (Lazy.force rg) cover);
    check_bool "all legal" true (Cover.all_legal (Lazy.force rg) cover);
    check_bool "at least minimum" true (Cover.size cover >= 4)
  done

let test_randomized_diversity () =
  (* Different seeds must eventually produce different covers. *)
  let net =
    Fixtures.random_line_net (Prng.create 7) ~n_switches:5 ~rules_per_switch:4
      ~header_len:8
  in
  let rg = RG.build net in
  let signatures =
    List.init 8 (fun seed ->
        let cover = LM.randomized (Prng.create (seed + 100)) rg in
        List.sort compare (List.map (fun p -> p.Cover.rules) cover.Cover.paths))
  in
  check_bool "diverse" true (List.length (List.sort_uniq compare signatures) > 1)

let test_randomized_more_packets () =
  (* Across runs, the randomized greedy cover is at least as large as
     the minimum and usually strictly larger somewhere. *)
  let net =
    Fixtures.random_line_net (Prng.create 21) ~n_switches:6 ~rules_per_switch:4
      ~header_len:8
  in
  let rg = RG.build net in
  let minimum = Cover.size (LM.solve rg) in
  let sizes = List.init 10 (fun s -> Cover.size (LM.randomized (Prng.create s) rg)) in
  List.iter (fun s -> check_bool ">= minimum" true (s >= minimum)) sizes

(* ------------------------------------------------------------------ *)
(* Header assignment *)

let test_headers_deterministic () =
  let cover = LM.solve (Lazy.force rg) in
  let assigned = Headers.assign Headers.Deterministic cover in
  check_int "one per path" (Cover.size cover) (List.length assigned);
  List.iter
    (fun ((p : Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Cover.start_space))
    assigned;
  (* Deterministic: same result twice. *)
  let again = Headers.assign Headers.Deterministic cover in
  check_bool "stable" true
    (List.for_all2 (fun (_, a) (_, b) -> Header.equal a b) assigned again)

let test_headers_sat_unique () =
  let cover = LM.solve (Lazy.force rg) in
  let assigned = Headers.assign Headers.Sat_unique cover in
  let hs = List.map snd assigned in
  check_int "pairwise distinct" (List.length hs)
    (List.length (List.sort_uniq Header.compare hs));
  List.iter
    (fun ((p : Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Cover.start_space))
    assigned

(* [Sat_unique] is the lex-least unique assignment: each path takes the
   least free header, in string order, of the first cube of its space
   that has one, else its space's first member (a duplicate). The
   oracle enumerates every header of the length in string order and
   keeps the cube's members, sharing nothing with the planner's
   per-cube cursors. *)
let path_of_cubes len i cubes =
  { Cover.vertices = [ i ]; rules = [ i ]; start_space = Hs.of_cubes len cubes }

let brute_lex_least (cover : Cover.t) =
  let taken = Hashtbl.create 16 in
  List.map
    (fun (p : Cover.path) ->
      let len = Hs.length p.Cover.start_space in
      let in_string_order cube =
        List.init (1 lsl len) (fun v ->
            String.init len (fun k ->
                if (v lsr (len - 1 - k)) land 1 = 1 then '1' else '0'))
        |> List.filter (fun s -> Cube.member ~header:(Cube.of_string s) cube)
      in
      let h =
        match
          List.find_map
            (fun cube ->
              List.find_opt (fun s -> not (Hashtbl.mem taken s)) (in_string_order cube))
            (Hs.cubes p.Cover.start_space)
        with
        | Some s -> s
        | None ->
            Cube.to_string (Option.get (Hs.first_member p.Cover.start_space))
      in
      Hashtbl.replace taken h ();
      h)
    cover.Cover.paths

let sat_unique_strings ?memo cover =
  List.map
    (fun (_, h) -> Header.to_string h)
    (Headers.assign ?memo Headers.Sat_unique cover)

let test_headers_lex_least_examples () =
  let len = 2 in
  let cube = Cube.of_string in
  let cover =
    {
      Cover.paths =
        [
          path_of_cubes len 0 [ cube "xx" ];
          path_of_cubes len 1 [ cube "0x" ];
          path_of_cubes len 2 [ cube "0x"; cube "11" ];
          path_of_cubes len 3 [ cube "xx" ];
          path_of_cubes len 4 [ cube "0x"; cube "11" ];
        ];
      untestable = [];
    }
  in
  let got = sat_unique_strings cover in
  (* 0x is exhausted at path 2 (the search moves to 11) and both its
     cubes are at path 4 (the duplicate fallback). *)
  Alcotest.(check (list string)) "assignment" [ "00"; "01"; "11"; "10"; "00" ] got

let prop_sat_unique_lex_least =
  QCheck.Test.make ~count:300 ~name:"Sat_unique = brute-force lex-least fold"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 8))
    (fun (seed, len) ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 40 in
      let cover =
        {
          Cover.paths =
            List.init n (fun i ->
                path_of_cubes len i
                  (List.init (1 + Prng.int rng 3) (fun _ ->
                       Cube.random rng ~wildcard_prob:0.4 len)));
          untestable = [];
        }
      in
      (* A memo warmed on a prefix replays it and assigns the rest. *)
      let memo = Headers.memo_create () in
      let k = Prng.int rng (n + 1) in
      ignore
        (sat_unique_strings ~memo
           { cover with Cover.paths = List.filteri (fun i _ -> i < k) cover.Cover.paths });
      let cold = sat_unique_strings cover in
      cold = brute_lex_least cover && sat_unique_strings ~memo cover = cold)

let test_headers_random () =
  let cover = LM.solve (Lazy.force rg) in
  let a1 = Headers.assign (Headers.Random (Prng.create 1)) cover in
  let a2 = Headers.assign (Headers.Random (Prng.create 2)) cover in
  List.iter
    (fun ((p : Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Cover.start_space))
    (a1 @ a2);
  (* Over two seeds at least one header should differ (spaces have >= 8
     members each in Figure 3). *)
  check_bool "random differs" true
    (List.exists2 (fun (_, a) (_, b) -> not (Header.equal a b)) a1 a2)

let test_paper_header_space () =
  (* §V-B step 3: HS(a1->b1->c2->e1) = 00101xxx. *)
  let f = Lazy.force fx in
  let cover = LM.solve (Lazy.force rg) in
  let target =
    List.find
      (fun (p : Cover.path) ->
        List.mem (RG.vertex_of_entry (Lazy.force rg) f.Fixtures.a1.FE.id) p.Cover.rules)
      cover.Cover.paths
  in
  check_bool "00101xxx" true
    (Hs.equal_sets target.Cover.start_space (Hs.of_cubes 8 [ Cube.of_string "00101xxx" ]))

(* ------------------------------------------------------------------ *)
(* Traffic profiles (§V-C sFlow sampling) *)

let test_traffic_of_samples () =
  let h s = Header.of_string s in
  let t =
    Mlpc.Traffic.of_samples
      [ (h "00000000", 10); (h "11111111", 5); (h "01010101", 0) ]
  in
  check_int "flows (zero-count dropped)" 2 (Mlpc.Traffic.n_flows t);
  check_int "packets" 15 (Mlpc.Traffic.total_packets t)

let test_traffic_sample_in () =
  let h s = Header.of_string s in
  let t = Mlpc.Traffic.of_samples [ (h "00000001", 100); (h "10000001", 1) ] in
  let rng = Prng.create 3 in
  let zeros = Hs.of_cube (Cube.of_string "0xxxxxxx") in
  for _ = 1 to 20 do
    match Mlpc.Traffic.sample_in t rng zeros with
    | Some picked -> check_bool "restricted" true (Header.equal picked (h "00000001"))
    | None -> Alcotest.fail "expected a sample"
  done;
  (* Weighted: over the full space, the elephant flow dominates. *)
  let full = Hs.full 8 in
  let elephants =
    List.length
      (List.filter
         (fun _ ->
           match Mlpc.Traffic.sample_in t rng full with
           | Some p -> Header.equal p (h "00000001")
           | None -> false)
         (List.init 100 Fun.id))
  in
  check_bool "weighting" true (elephants > 80);
  (* No traffic in the space: None. *)
  check_bool "empty region" true
    (Mlpc.Traffic.sample_in t rng (Hs.of_cube (Cube.of_string "11xxxxxx")) = None)

let test_traffic_weighted_policy () =
  let fx = Fixtures.figure3 () in
  let rg3 = RG.build fx.Fixtures.net in
  let cover = LM.solve rg3 in
  let rng = Prng.create 5 in
  let traffic = Mlpc.Traffic.synthesize rng fx.Fixtures.net ~flows:50 in
  check_bool "synthesized flows" true (Mlpc.Traffic.n_flows traffic > 0);
  let assigned =
    Headers.assign (Headers.Traffic_weighted (traffic, Prng.create 6)) cover
  in
  check_int "one per path" (Mlpc.Cover.size cover) (List.length assigned);
  List.iter
    (fun ((p : Mlpc.Cover.path), (h : Header.t)) ->
      check_bool "in start space" true (Hs.mem (h :> Cube.t) p.Mlpc.Cover.start_space))
    assigned

let () =
  Alcotest.run "mlpc"
    [
      ( "figure6",
        [
          Alcotest.test_case "paper cover" `Quick test_figure6_cover;
          Alcotest.test_case "metrics" `Quick test_cover_metrics;
          Alcotest.test_case "paper header space" `Quick test_paper_header_space;
        ] );
      ( "minimality",
        [
          Alcotest.test_case "figure3 brute force" `Quick test_figure3_minimality_brute;
          Alcotest.test_case "random vs brute force" `Slow test_minimality_vs_brute_force;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "random networks" `Quick test_cover_invariants_random;
          Alcotest.test_case "untestable rules" `Quick test_untestable_reported;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "valid covers" `Quick test_randomized_valid;
          Alcotest.test_case "diversity" `Quick test_randomized_diversity;
          Alcotest.test_case "size vs minimum" `Quick test_randomized_more_packets;
        ] );
      ( "headers",
        [
          Alcotest.test_case "deterministic" `Quick test_headers_deterministic;
          Alcotest.test_case "sat unique" `Quick test_headers_sat_unique;
          Alcotest.test_case "lex-least examples" `Quick test_headers_lex_least_examples;
          QCheck_alcotest.to_alcotest prop_sat_unique_lex_least;
          Alcotest.test_case "random" `Quick test_headers_random;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "of samples" `Quick test_traffic_of_samples;
          Alcotest.test_case "sample in space" `Quick test_traffic_sample_in;
          Alcotest.test_case "weighted policy" `Quick test_traffic_weighted_policy;
        ] );
    ]
