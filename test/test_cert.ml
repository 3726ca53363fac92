(* Tests for the certification layer: the DRUP checker against the
   solver's proof logging (including every add_clause normalization
   shape), DIMACS round-trips with a brute-force differential, König
   certificates, cache-free path replay, Yen re-checks, and the
   end-to-end plan certification — plus mutation tests proving each
   checker actually rejects corrupted certificates. *)

module Solver = Sat.Solver
module Dimacs = Sat.Dimacs
module HE = Sat.Header_encoding
module Drup = Cert.Drup
module Konig = Cert.Konig
module Replay = Cert.Replay
module Yen_check = Cert.Yen_check
module HK = Sdngraph.Hopcroft_karp
module Digraph = Sdngraph.Digraph
module Cube = Hspace.Cube
module Header = Hspace.Header
module Hs = Hspace.Hs
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let is_ok = function Ok () -> true | Error _ -> false

(* ------------------------------------------------------------------ *)
(* DRUP checking of logged refutations *)

(* Run a logged solver over [clauses]; on Unsat, the proof must check;
   on Sat, the model must check. *)
let solve_and_certify clauses =
  let s = Solver.create () in
  Solver.log_proof s;
  List.iter (Solver.add_clause s) clauses;
  match Solver.solve s with
  | Solver.Sat m ->
      check_bool "model checks" true
        (is_ok (Drup.check_model ~clauses:(Solver.logged_clauses s) m));
      true
  | Solver.Unsat ->
      check_bool "proof checks" true
        (is_ok
           (Drup.check ~nvars:(Solver.nvars s)
              ~clauses:(Solver.logged_clauses s)
              ~proof:(Solver.proof s) ()));
      false

let test_drup_contradiction () =
  check_bool "unsat" false (solve_and_certify [ [ 1 ]; [ -1 ] ])

let test_drup_empty_clause () =
  check_bool "unsat" false (solve_and_certify [ [ 1; 2 ]; [] ])

let test_drup_pigeonhole () =
  (* 3 pigeons, 2 holes: needs real conflict analysis, so the proof has
     learnt-clause steps. *)
  let var p h = ((p - 1) * 2) + h in
  let clauses =
    List.concat
      [
        List.init 3 (fun p -> [ var (p + 1) 1; var (p + 1) 2 ]);
        List.concat_map
          (fun h ->
            [
              [ -var 1 h; -var 2 h ];
              [ -var 1 h; -var 3 h ];
              [ -var 2 h; -var 3 h ];
            ])
          [ 1; 2 ];
      ]
  in
  check_bool "unsat" false (solve_and_certify clauses)

let test_drup_sat_instance () =
  check_bool "sat" true (solve_and_certify [ [ 1; 2 ]; [ -1; 2 ]; [ -2; 3 ] ])

let test_drup_rejects_bogus_step () =
  (* [2] is not RUP w.r.t. {1} — nothing forces variable 2. *)
  match Drup.check ~clauses:[ [ 1 ] ] ~proof:[ [ 2 ]; [] ] () with
  | Ok () -> Alcotest.fail "bogus step accepted"
  | Error e -> check_bool "names step 0" true (e.Drup.step = Some 0)

let test_drup_rejects_missing_empty_clause () =
  (* Valid steps but no refutation: must be rejected. *)
  match Drup.check ~clauses:[ [ 1 ]; [ -1; 2 ] ] ~proof:[ [ 2 ] ] () with
  | Ok () -> Alcotest.fail "proof without empty clause accepted"
  | Error e ->
      check_bool "mentions exhaustion" true
        (String.length e.Drup.reason > 0 && e.Drup.step = None)

let test_drup_rejects_truncated_proof () =
  (* Take a real refutation and drop one step: either some later step
     stops being RUP or the empty clause is never derived. *)
  let s = Solver.create () in
  Solver.log_proof s;
  let var p h = ((p - 1) * 2) + h in
  for p = 1 to 3 do
    Solver.add_clause s [ var p 1; var p 2 ]
  done;
  List.iter
    (fun h ->
      Solver.add_clause s [ -var 1 h; -var 2 h ];
      Solver.add_clause s [ -var 1 h; -var 3 h ];
      Solver.add_clause s [ -var 2 h; -var 3 h ])
    [ 1; 2 ];
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected unsat");
  let clauses = Solver.logged_clauses s and proof = Solver.proof s in
  check_bool "intact proof checks" true
    (is_ok (Drup.check ~clauses ~proof ()));
  (* Drop each single step in turn; every truncation must be rejected
     (the final step is the empty clause, so at minimum that case
     fails). *)
  List.iteri
    (fun i _ ->
      let mutilated = List.filteri (fun j _ -> j <> i) proof in
      check_bool
        (Printf.sprintf "proof minus step %d rejected" i)
        false
        (is_ok (Drup.check ~clauses ~proof:mutilated ())))
    proof

let test_check_model_rejects_bad_model () =
  let clauses = [ [ 1; 2 ]; [ -1 ] ] in
  let good = [| false; false; true |] in
  let bad = [| false; true; false |] in
  check_bool "good model" true (is_ok (Drup.check_model ~clauses good));
  check_bool "bad model" false (is_ok (Drup.check_model ~clauses bad))

(* ------------------------------------------------------------------ *)
(* add_clause normalization shapes: each simplifier path must leave the
   proof log in a state the checker accepts. *)

let test_norm_duplicate_literals () =
  (* [1; 1] strengthens to [1]; instance forced unsat via [-1]. *)
  check_bool "unsat" false (solve_and_certify [ [ 1; 1 ]; [ -1 ] ])

let test_norm_tautology () =
  (* [1; -1] is dropped entirely; remaining instance is unsat. *)
  check_bool "unsat" false (solve_and_certify [ [ 1; -1 ]; [ 2 ]; [ -2 ] ])

let test_norm_satisfied_at_level0 () =
  (* [1] satisfies [1; 2] on arrival; the drop must not confuse the
     refutation that follows from [-1]. *)
  check_bool "unsat" false (solve_and_certify [ [ 1 ]; [ 1; 2 ]; [ -1 ] ])

let test_norm_falsified_literal_strengthening () =
  (* With [-1] asserted, [1; 2] strengthens to the unit [2]; then [-2]
     refutes. The strengthened unit is a logged DRUP step. *)
  check_bool "unsat" false (solve_and_certify [ [ -1 ]; [ 1; 2 ]; [ -2 ] ])

let test_norm_strengthened_to_empty () =
  (* With [-1] and [-2] asserted, [1; 2] strengthens to the empty
     clause: immediate refutation. *)
  check_bool "unsat" false (solve_and_certify [ [ -1 ]; [ -2 ]; [ 1; 2 ] ])

let test_norm_clauses_after_refutation () =
  (* Clauses added after the solver is refuted still enter the logged
     database verbatim (the checker needs the full problem). *)
  let s = Solver.create () in
  Solver.log_proof s;
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ 2; 3 ];
  check_int "all clauses logged" 3 (List.length (Solver.logged_clauses s));
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected unsat");
  check_bool "proof checks" true
    (is_ok
       (Drup.check ~clauses:(Solver.logged_clauses s) ~proof:(Solver.proof s) ()))

let test_log_proof_must_precede_clauses () =
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Alcotest.check_raises "late log_proof rejected"
    (Invalid_argument "Solver.log_proof: enable logging before adding clauses")
    (fun () -> Solver.log_proof s)

(* ------------------------------------------------------------------ *)
(* DIMACS round-trip + brute-force differential *)

let test_dimacs_roundtrip () =
  let clauses = [ [ 1; -2; 3 ]; [ -1 ]; [ 2; 2 ] ] in
  let text = Dimacs.to_string ~comments:[ "unit test" ] ~nvars:3 clauses in
  match Dimacs.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok (nvars, clauses') ->
      check_int "nvars" 3 nvars;
      Alcotest.(check (list (list int))) "clauses" clauses clauses'

let test_dimacs_rejects_malformed () =
  let reject s = check_bool s false (Result.is_ok (Dimacs.of_string s)) in
  reject "1 2 0";  (* missing header *)
  reject "p cnf 2 1\np cnf 2 1\n1 0";  (* duplicate header *)
  reject "p cnf 2 1\n3 0";  (* literal above nvars *)
  reject "p cnf 2 2\n1 0";  (* clause-count mismatch *)
  reject "p cnf 2 1\n1 2"  (* unterminated clause *)

let brute_force_sat nvars clauses =
  let n = 1 lsl nvars in
  let rec try_assignment a =
    if a >= n then false
    else
      let value l =
        let bit = (a lsr (abs l - 1)) land 1 = 1 in
        if l > 0 then bit else not bit
      in
      if List.for_all (fun c -> List.exists value c) clauses then true
      else try_assignment (a + 1)
  in
  try_assignment 0

let random_cnf_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 5 in
    let* nclauses = int_range 1 12 in
    let clause =
      let* len = int_range 0 4 in
      list_size (return len)
        (let* v = int_range 1 nvars in
         let* s = bool in
         return (if s then v else -v))
    in
    let* clauses = list_size (return nclauses) clause in
    return (nvars, clauses))

let test_qcheck_differential =
  QCheck.Test.make ~count:300 ~name:"solver vs brute force, certified"
    (QCheck.make random_cnf_gen) (fun (nvars, clauses) ->
      let expected = brute_force_sat nvars clauses in
      let s = Solver.create ~nvars () in
      Solver.log_proof s;
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Sat m ->
          expected
          && is_ok (Drup.check_model ~clauses:(Solver.logged_clauses s) m)
      | Solver.Unsat ->
          (not expected)
          && is_ok
               (Drup.check ~nvars:(Solver.nvars s)
                  ~clauses:(Solver.logged_clauses s)
                  ~proof:(Solver.proof s) ()))

let test_dimacs_file_differential =
  (* Round-trip through the text format, then solve both copies: same
     answer. *)
  QCheck.Test.make ~count:100 ~name:"dimacs round-trip preserves the instance"
    (QCheck.make random_cnf_gen) (fun (nvars, clauses) ->
      let text = Dimacs.to_string ~nvars clauses in
      match Dimacs.of_string text with
      | Error _ -> false
      | Ok parsed ->
          let solve_instance (nv, cls) =
            let s = Solver.create ~nvars:nv () in
            Dimacs.load_into s (nv, cls);
            match Solver.solve s with Solver.Sat _ -> true | Solver.Unsat -> false
          in
          solve_instance (nvars, clauses) = solve_instance parsed)

(* ------------------------------------------------------------------ *)
(* König certificates *)

let konig_of ~nl ~nr adj =
  let m = HK.run ~nl ~nr adj in
  let cover_left, cover_right = HK.konig_cover ~nl ~nr adj m in
  {
    Konig.nl;
    nr;
    adj;
    match_l = m.HK.match_l;
    match_r = m.HK.match_r;
    cover_left;
    cover_right;
  }

let test_konig_small () =
  let adj = [| [ 0; 1 ]; [ 0 ]; [ 0 ] |] in
  let c = konig_of ~nl:3 ~nr:2 adj in
  check_bool "certificate valid" true (is_ok (Konig.check c));
  check_int "matching size" 2 (Konig.matching_size c)

let test_konig_random =
  QCheck.Test.make ~count:200 ~name:"König certificate on random bipartite graphs"
    QCheck.(
      make
        Gen.(
          let* nl = int_range 1 12 in
          let* nr = int_range 1 12 in
          let* adj =
            array_size (return nl)
              (let* d = int_range 0 (min nr 4) in
               list_size (return d) (int_range 0 (nr - 1)))
          in
          return (nl, nr, Array.map (List.sort_uniq compare) adj)))
    (fun (nl, nr, adj) -> is_ok (Konig.check (konig_of ~nl ~nr adj)))

let test_konig_rejects_dropped_cover_vertex () =
  let adj = [| [ 0; 1 ]; [ 0 ]; [ 0 ] |] in
  let c = konig_of ~nl:3 ~nr:2 adj in
  let mutate c =
    match (c.Konig.cover_left, c.Konig.cover_right) with
    | v :: rest, _ -> { c with Konig.cover_left = rest; match_l = c.match_l; match_r = c.match_r } |> fun c' -> (v, c')
    | [], v :: rest -> (v, { c with Konig.cover_right = rest })
    | [], [] -> Alcotest.fail "empty cover"
  in
  let _, c' = mutate c in
  match Konig.check c' with
  | Ok () -> Alcotest.fail "mutilated cover accepted"
  | Error msg ->
      check_bool "diagnostic names an uncovered edge" true
        (String.length msg > 0)

let test_konig_rejects_fake_matched_edge () =
  (* Claim a matched pair that is not an edge. *)
  let adj = [| [ 0 ]; [ 1 ] |] in
  let c = konig_of ~nl:2 ~nr:2 adj in
  let c' =
    let ml = Array.copy c.Konig.match_l and mr = Array.copy c.Konig.match_r in
    ml.(0) <- 1;
    mr.(1) <- 0;
    { c with Konig.match_l = ml; match_r = mr }
  in
  check_bool "fake edge rejected" false (is_ok (Konig.check_matching c'))

let test_konig_rejects_undersized_cover_vs_matching () =
  (* A maximal-but-not-maximum matching with a cover of its own size
     must be rejected: the certificate equality is what proves
     maximality. Path graph L={0,1}, R={0,1}, edges (0,0),(1,0),(1,1):
     greedy from vertex 1 first can match only (1,0); here we fake a
     size-1 matching and a size-1 "cover" {R0} that misses edge (1,1). *)
  let adj = [| [ 0 ]; [ 0; 1 ] |] in
  let c =
    {
      Konig.nl = 2;
      nr = 2;
      adj;
      match_l = [| -1; 0 |];
      match_r = [| 1; -1 |];
      cover_left = [];
      cover_right = [ 0 ];
    }
  in
  check_bool "matching itself is consistent" true (is_ok (Konig.check_matching c));
  check_bool "certificate rejected" false (is_ok (Konig.check c))

(* ------------------------------------------------------------------ *)
(* Path-witness replay on the paper's Figure 3 *)

let figure3_plan () =
  let fx = Fixtures.figure3 () in
  (fx, Pipeline.plan (Pipeline.create fx.Fixtures.net))

let witness_of (p : Sdnprobe.Probe.t) =
  { Replay.rules = p.Sdnprobe.Probe.rules; header = p.Sdnprobe.Probe.header }

let test_replay_accepts_plan_witnesses () =
  let fx, plan = figure3_plan () in
  List.iter
    (fun (p : Sdnprobe.Probe.t) ->
      match Replay.check_path fx.Fixtures.net (witness_of p) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    plan.Sdnprobe.Plan.probes

let test_replay_rejects_truncated_witness () =
  let fx, plan = figure3_plan () in
  (* Coverage collapses when a multi-hop witness is truncated: the
     dropped entries become uncovered. *)
  let long =
    List.find
      (fun (p : Sdnprobe.Probe.t) -> List.length p.Sdnprobe.Probe.rules > 1)
      plan.Sdnprobe.Plan.probes
  in
  let truncated =
    List.map
      (fun (p : Sdnprobe.Probe.t) ->
        if p.Sdnprobe.Probe.id = long.Sdnprobe.Probe.id then
          [ List.hd p.Sdnprobe.Probe.rules ]
        else p.Sdnprobe.Probe.rules)
      plan.Sdnprobe.Plan.probes
  in
  let rg = plan.Sdnprobe.Plan.rulegraph in
  let untestable =
    List.map
      (fun v ->
        (Rulegraph.Rule_graph.vertex_entry rg v).Openflow.Flow_entry.id)
      plan.Sdnprobe.Plan.cover.Mlpc.Cover.untestable
  in
  check_bool "intact coverage ok" true
    (is_ok
       (Replay.check_coverage fx.Fixtures.net
          ~paths:
            (List.map
               (fun (p : Sdnprobe.Probe.t) -> p.Sdnprobe.Probe.rules)
               plan.Sdnprobe.Plan.probes)
          ~untestable));
  check_bool "truncated coverage rejected" false
    (is_ok (Replay.check_coverage fx.Fixtures.net ~paths:truncated ~untestable))

let test_replay_rejects_corrupted_header () =
  let fx, plan = figure3_plan () in
  let long =
    List.find
      (fun (p : Sdnprobe.Probe.t) -> List.length p.Sdnprobe.Probe.rules > 1)
      plan.Sdnprobe.Plan.probes
  in
  (* Flip every header bit: the walk must diverge somewhere. *)
  let h = long.Sdnprobe.Probe.header in
  let flipped =
    Header.of_cube
      (Cube.of_bits
         (Array.init (Header.length h) (fun i ->
              if Header.get h i then Cube.Zero else Cube.One)))
  in
  check_bool "corrupted header rejected" false
    (is_ok
       (Replay.check_path fx.Fixtures.net
          { Replay.rules = long.Sdnprobe.Probe.rules; header = flipped }))

let test_replay_rejects_wrong_rule_sequence () =
  let fx, plan = figure3_plan () in
  let long =
    List.find
      (fun (p : Sdnprobe.Probe.t) -> List.length p.Sdnprobe.Probe.rules > 1)
      plan.Sdnprobe.Plan.probes
  in
  let reversed =
    { (witness_of long) with Replay.rules = List.rev long.Sdnprobe.Probe.rules }
  in
  check_bool "reversed sequence rejected" false
    (is_ok (Replay.check_path fx.Fixtures.net reversed))

let test_replay_rejects_undeclared_untestable () =
  (* Declaring a covered entry untestable is a contradiction. *)
  let fx, plan = figure3_plan () in
  let paths =
    List.map (fun (p : Sdnprobe.Probe.t) -> p.Sdnprobe.Probe.rules)
      plan.Sdnprobe.Plan.probes
  in
  let covered_id = List.hd (List.hd paths) in
  check_bool "contradictory declaration rejected" false
    (is_ok
       (Replay.check_coverage fx.Fixtures.net ~paths ~untestable:[ covered_id ]))

(* ------------------------------------------------------------------ *)
(* Yen certificates *)

let diamond () =
  (* 0 -> {1, 2} -> 3 with a slow direct edge 0 -> 3. *)
  let g = Digraph.create 4 in
  Digraph.add_edge ~weight:1. g 0 1;
  Digraph.add_edge ~weight:1. g 1 3;
  Digraph.add_edge ~weight:2. g 0 2;
  Digraph.add_edge ~weight:1. g 2 3;
  Digraph.add_edge ~weight:10. g 0 3;
  g

let test_yen_accepts_real_answers () =
  let g = diamond () in
  let paths = Sdngraph.Yen.k_shortest g ~src:0 ~dst:3 ~k:3 in
  check_int "three paths" 3 (List.length paths);
  check_bool "certified" true (is_ok (Yen_check.check g ~src:0 ~dst:3 ~k:3 paths))

let test_yen_rejects_reordered () =
  let g = diamond () in
  match Sdngraph.Yen.k_shortest g ~src:0 ~dst:3 ~k:3 with
  | a :: b :: rest ->
      check_bool "reordered rejected" false
        (is_ok (Yen_check.check g ~src:0 ~dst:3 ~k:3 ((b :: a :: rest) @ [])))
  | _ -> Alcotest.fail "expected >= 2 paths"

let test_yen_rejects_nonedge_and_loop () =
  let g = diamond () in
  check_bool "fabricated edge rejected" false
    (is_ok (Yen_check.check g ~src:0 ~dst:3 ~k:2 [ [ 0; 3 ]; [ 0; 2; 1; 3 ] ]));
  let g' = diamond () in
  Digraph.add_edge ~weight:1. g' 1 0;
  check_bool "looping path rejected" false
    (is_ok (Yen_check.check g' ~src:0 ~dst:3 ~k:2 [ [ 0; 1; 0; 1; 3 ] ]))

let test_yen_rejects_suboptimal_first () =
  let g = diamond () in
  check_bool "suboptimal rank-0 rejected" false
    (is_ok (Yen_check.check g ~src:0 ~dst:3 ~k:1 [ [ 0; 3 ] ]))

let test_yen_rejects_nonempty_claim_on_unreachable () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1;
  check_bool "empty answer for unreachable dst certifies" true
    (is_ok (Yen_check.check g ~src:0 ~dst:2 ~k:4 []));
  check_bool "empty answer for reachable dst rejected" false
    (is_ok (Yen_check.check g ~src:0 ~dst:1 ~k:4 []))

(* ------------------------------------------------------------------ *)
(* SAT certified header queries *)

let test_find_header_certified_sat () =
  let cube = Cube.of_string "10xxxxxx" in
  let c = HE.find_header_certified ~inside:[ cube ] 8 in
  (match c.HE.header with
  | None -> Alcotest.fail "expected a header"
  | Some h -> check_bool "inside the cube" true (Header.matches h cube));
  check_bool "clauses recorded" true (c.HE.clauses <> [])

let test_find_header_certified_unsat_proof () =
  (* inside two disjoint cubes: unsatisfiable, proof must check. *)
  let c =
    HE.find_header_certified
      ~inside:[ Cube.of_string "1xxxxxxx"; Cube.of_string "0xxxxxxx" ]
      8
  in
  check_bool "no header" true (Option.is_none c.HE.header);
  check_bool "refutation checks" true
    (is_ok (Drup.check ~nvars:c.HE.nvars ~clauses:c.HE.clauses ~proof:c.HE.proof ()))

(* ------------------------------------------------------------------ *)
(* End-to-end certification *)

let certify_workload ~switches ~seed =
  let rng = Prng.create seed in
  let topo = Topogen.Topo_gen.rocketfuel_like rng ~n_switches:switches () in
  let net = Topogen.Rule_gen.install rng topo in
  let plan = Pipeline.plan (Pipeline.create net) in
  (plan, Sdnprobe.Certify.run ~seed plan)

let theorem1_equality (plan : Sdnprobe.Plan.t) =
  (* |cover| must equal n_testable − |unconstrained max matching|. *)
  let rg = plan.Sdnprobe.Plan.rulegraph in
  let n = Rulegraph.Rule_graph.n_vertices rg in
  let g = Rulegraph.Rule_graph.graph rg in
  let testable =
    Array.init n (fun v -> not (Hs.is_empty (Rulegraph.Rule_graph.input rg v)))
  in
  let adj =
    Array.init n (fun u ->
        if testable.(u) then
          List.filter (fun v -> testable.(v)) (Digraph.succ g u)
        else [])
  in
  let m = HK.run ~nl:n ~nr:n adj in
  let n_testable =
    Array.fold_left (fun a t -> if t then a + 1 else a) 0 testable
  in
  List.length plan.Sdnprobe.Plan.cover.Mlpc.Cover.paths
  = n_testable - m.HK.size

let test_certify_16_switches () =
  let plan, report = certify_workload ~switches:16 ~seed:1 in
  if not (Sdnprobe.Certify.ok_report report) then
    Alcotest.fail
      (Format.asprintf "%a" Sdnprobe.Certify.pp report);
  check_bool "cover size = n - |M|" true (theorem1_equality plan)

let test_certify_50_switches () =
  let plan, report = certify_workload ~switches:50 ~seed:3 in
  check_bool "certified" true (Sdnprobe.Certify.ok_report report);
  check_bool "cover size = n - |M|" true (theorem1_equality plan)

let test_certify_figure3 () =
  let _, plan = figure3_plan () in
  let report = Sdnprobe.Certify.run plan in
  if not (Sdnprobe.Certify.ok_report report) then
    Alcotest.fail (Format.asprintf "%a" Sdnprobe.Certify.pp report)

(* Mutation: swap the first probe's header for another free member of
   the same start-space cube that sorts after it. The probe still
   traverses its path, but the header is not the lex-least free one,
   so the bit-fixing replay disagrees. *)
let test_certify_rejects_non_lex_least_header () =
  let _, plan = figure3_plan () in
  let headers =
    List.map
      (fun (p : Sdnprobe.Probe.t) -> p.Sdnprobe.Probe.header)
      plan.Sdnprobe.Plan.probes
  in
  let first = List.hd plan.Sdnprobe.Plan.probes in
  let path = List.hd plan.Sdnprobe.Plan.cover.Mlpc.Cover.paths in
  let h = first.Sdnprobe.Probe.header in
  let cube =
    List.find (Header.matches h) (Hs.cubes path.Mlpc.Cover.start_space)
  in
  let swapped =
    List.init (1 lsl Cube.wildcard_count cube) (fun k ->
        Header.of_cube (Cube.nth_member cube k))
    |> List.find (fun h' ->
           Header.compare h' h > 0 && not (List.exists (Header.equal h') headers))
  in
  let plan' =
    {
      plan with
      Sdnprobe.Plan.probes =
        { first with Sdnprobe.Probe.header = swapped }
        :: List.tl plan.Sdnprobe.Plan.probes;
    }
  in
  let report = Sdnprobe.Certify.run plan' in
  let agree =
    List.concat_map (fun (s : Sdnprobe.Certify.section) -> s.checks) report.sections
    |> List.find (fun (c : Sdnprobe.Certify.check) -> c.name = "sat/headers-agree")
  in
  check_bool "sat/headers-agree fails" false agree.ok;
  check_bool "report rejected" false (Sdnprobe.Certify.ok_report report)

let test_certify_json_shape () =
  let _, plan = figure3_plan () in
  let json = Sdnprobe.Certify.to_json (Sdnprobe.Certify.run plan) in
  let module J = Sdn_util.Json in
  (match J.of_string (J.to_string json) with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      check_int "schema version" 2 (Option.get (J.obj_int "schema_version" j));
      check_bool "certified flag" true
        (J.member "certified" j = Some (J.Bool true));
      check_int "four sections" 4
        (List.length (Option.get (J.obj_list "sections" j)));
      check_int "no patch events" 0
        (List.length (Option.get (J.obj_list "patch_events" j))))

(* v2 round-trip: parsing [to_json] back yields the same report (and
   re-serializes byte-identically). *)
let test_certify_json_roundtrip_v2 () =
  let _, plan = figure3_plan () in
  let report = Sdnprobe.Certify.run plan in
  let module J = Sdn_util.Json in
  let s = J.to_string (Sdnprobe.Certify.to_json report) in
  match Result.bind (J.of_string s) Sdnprobe.Certify.of_json with
  | Error msg -> Alcotest.fail msg
  | Ok report' ->
      Alcotest.(check string)
        "byte-identical after round-trip" s
        (J.to_string (Sdnprobe.Certify.to_json report'))

(* v1 acceptance: a version-1 document (no [patch_events] field) still
   parses, with an empty patch-event list. *)
let test_certify_json_accepts_v1 () =
  let _, plan = figure3_plan () in
  let report = Sdnprobe.Certify.run plan in
  let module J = Sdn_util.Json in
  let v1 =
    match Sdnprobe.Certify.to_json report with
    | J.Obj fields ->
        J.Obj
          (List.filter_map
             (function
               | "schema_version", _ -> Some ("schema_version", J.Int 1)
               | "patch_events", _ -> None
               | kv -> Some kv)
             fields)
    | _ -> Alcotest.fail "certificate JSON is not an object"
  in
  (match Sdnprobe.Certify.of_json v1 with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      check_bool "still certified" true (Sdnprobe.Certify.ok_report r);
      check_int "patch_events default to empty" 0
        (List.length r.Sdnprobe.Certify.patch_events));
  (* Unknown versions are refused. *)
  let v99 =
    match Sdnprobe.Certify.to_json report with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "schema_version", _ -> ("schema_version", J.Int 99)
               | kv -> kv)
             fields)
    | _ -> assert false
  in
  check_bool "version 99 refused" true
    (Result.is_error (Sdnprobe.Certify.of_json v99))

(* ------------------------------------------------------------------ *)
(* Lint L009 delegation: the pass and the certification coverage
   checker must agree (shared implementation). *)

let test_lint_coverage_delegation () =
  let fx, plan = figure3_plan () in
  let paths =
    List.map (fun (p : Sdnprobe.Probe.t) -> p.Sdnprobe.Probe.rules)
      plan.Sdnprobe.Plan.probes
  in
  (* Full plan: no uncovered entries, no L009 diagnostics. *)
  let report = Lint.Engine.run ~only:[ "L009" ] ~probes:paths fx.Fixtures.net in
  check_int "clean plan lints clean" 0
    (List.length (Lint.Engine.sorted report));
  (* Drop one probe: the pass must flag exactly the entries the cert
     checker reports uncovered. *)
  let partial = List.tl paths in
  let expected =
    List.map (fun ((e : Openflow.Flow_entry.t), _) -> e.Openflow.Flow_entry.id)
      (Replay.uncovered fx.Fixtures.net ~probes:partial)
  in
  check_bool "some entries uncovered" true (expected <> []);
  let report = Lint.Engine.run ~only:[ "L009" ] ~probes:partial fx.Fixtures.net in
  let flagged =
    List.concat_map
      (fun d -> d.Lint.Diagnostic.entries)
      (Lint.Engine.sorted report)
  in
  Alcotest.(check (list int)) "pass flags the same entries" expected flagged

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cert"
    [
      ( "drup",
        [
          Alcotest.test_case "contradiction" `Quick test_drup_contradiction;
          Alcotest.test_case "empty clause" `Quick test_drup_empty_clause;
          Alcotest.test_case "pigeonhole" `Quick test_drup_pigeonhole;
          Alcotest.test_case "sat instance" `Quick test_drup_sat_instance;
          Alcotest.test_case "rejects bogus step" `Quick test_drup_rejects_bogus_step;
          Alcotest.test_case "rejects missing empty clause" `Quick
            test_drup_rejects_missing_empty_clause;
          Alcotest.test_case "rejects truncated proofs" `Quick
            test_drup_rejects_truncated_proof;
          Alcotest.test_case "rejects bad models" `Quick
            test_check_model_rejects_bad_model;
        ] );
      ( "normalization",
        [
          Alcotest.test_case "duplicate literals" `Quick test_norm_duplicate_literals;
          Alcotest.test_case "tautology" `Quick test_norm_tautology;
          Alcotest.test_case "satisfied at level 0" `Quick
            test_norm_satisfied_at_level0;
          Alcotest.test_case "falsified-literal strengthening" `Quick
            test_norm_falsified_literal_strengthening;
          Alcotest.test_case "strengthened to empty" `Quick
            test_norm_strengthened_to_empty;
          Alcotest.test_case "clauses after refutation" `Quick
            test_norm_clauses_after_refutation;
          Alcotest.test_case "log_proof ordering" `Quick
            test_log_proof_must_precede_clauses;
        ] );
      ( "dimacs",
        Alcotest.test_case "round-trip" `Quick test_dimacs_roundtrip
        :: Alcotest.test_case "rejects malformed" `Quick test_dimacs_rejects_malformed
        :: qsuite [ test_qcheck_differential; test_dimacs_file_differential ] );
      ( "konig",
        Alcotest.test_case "small graph" `Quick test_konig_small
        :: Alcotest.test_case "rejects dropped cover vertex" `Quick
             test_konig_rejects_dropped_cover_vertex
        :: Alcotest.test_case "rejects fake matched edge" `Quick
             test_konig_rejects_fake_matched_edge
        :: Alcotest.test_case "rejects undersized cover" `Quick
             test_konig_rejects_undersized_cover_vs_matching
        :: qsuite [ test_konig_random ] );
      ( "replay",
        [
          Alcotest.test_case "accepts plan witnesses" `Quick
            test_replay_accepts_plan_witnesses;
          Alcotest.test_case "rejects truncated witness" `Quick
            test_replay_rejects_truncated_witness;
          Alcotest.test_case "rejects corrupted header" `Quick
            test_replay_rejects_corrupted_header;
          Alcotest.test_case "rejects wrong rule sequence" `Quick
            test_replay_rejects_wrong_rule_sequence;
          Alcotest.test_case "rejects contradictory untestable" `Quick
            test_replay_rejects_undeclared_untestable;
        ] );
      ( "yen",
        [
          Alcotest.test_case "accepts real answers" `Quick
            test_yen_accepts_real_answers;
          Alcotest.test_case "rejects reordered" `Quick test_yen_rejects_reordered;
          Alcotest.test_case "rejects non-edges and loops" `Quick
            test_yen_rejects_nonedge_and_loop;
          Alcotest.test_case "rejects suboptimal first path" `Quick
            test_yen_rejects_suboptimal_first;
          Alcotest.test_case "unreachable destinations" `Quick
            test_yen_rejects_nonempty_claim_on_unreachable;
        ] );
      ( "sat-queries",
        [
          Alcotest.test_case "certified sat query" `Quick
            test_find_header_certified_sat;
          Alcotest.test_case "certified unsat query" `Quick
            test_find_header_certified_unsat_proof;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "figure 3" `Quick test_certify_figure3;
          Alcotest.test_case "rejects non-lex-least header" `Quick
            test_certify_rejects_non_lex_least_header;
          Alcotest.test_case "16-switch workload" `Quick test_certify_16_switches;
          Alcotest.test_case "50-switch workload" `Slow test_certify_50_switches;
          Alcotest.test_case "json report shape" `Quick test_certify_json_shape;
          Alcotest.test_case "json round-trip v2" `Quick
            test_certify_json_roundtrip_v2;
          Alcotest.test_case "json accepts v1" `Quick test_certify_json_accepts_v1;
        ] );
      ( "lint-delegation",
        [
          Alcotest.test_case "L009 agrees with cert coverage" `Quick
            test_lint_coverage_delegation;
        ] );
    ]
