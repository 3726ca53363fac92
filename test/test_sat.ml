(* Tests for the CDCL solver and the header-selection encodings. *)

module Solver = Sat.Solver
module HE = Sat.Header_encoding
module Cube = Hspace.Cube
module Hs = Hspace.Hs
module Prng = Sdn_util.Prng

let check_bool = Alcotest.(check bool)

let is_sat = function Solver.Sat _ -> true | Solver.Unsat -> false

(* ------------------------------------------------------------------ *)
(* Solver unit tests *)

let test_empty_problem () =
  let s = Solver.create () in
  check_bool "trivially sat" true (is_sat (Solver.solve s))

let test_unit_clauses () =
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -2 ];
  match Solver.solve s with
  | Solver.Sat m ->
      check_bool "v1" true m.(1);
      check_bool "v2" false m.(2)
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_contradiction () =
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  check_bool "unsat" false (is_sat (Solver.solve s))

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  check_bool "unsat" false (is_sat (Solver.solve s))

let test_propagation_chain () =
  (* 1, 1->2, 2->3, ..., forces all true. *)
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  for v = 1 to 19 do
    Solver.add_clause s [ -v; v + 1 ]
  done;
  match Solver.solve s with
  | Solver.Sat m -> check_bool "v20" true m.(20)
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small unsat instance. Var p*2+h-2 maps
     pigeon p in hole h (p in 1..3, h in 1..2). *)
  let var p h = ((p - 1) * 2) + h in
  let s = Solver.create () in
  for p = 1 to 3 do
    Solver.add_clause s [ var p 1; var p 2 ]
  done;
  for h = 1 to 2 do
    for p1 = 1 to 3 do
      for p2 = p1 + 1 to 3 do
        Solver.add_clause s [ -var p1 h; -var p2 h ]
      done
    done
  done;
  check_bool "unsat" false (is_sat (Solver.solve s))

let test_model_satisfies () =
  (* A satisfiable structured instance; verify the model. *)
  let clauses = [ [ 1; 2; -3 ]; [ -1; 3 ]; [ 2; 3 ]; [ -2; -3; 4 ]; [ -4; 1 ] ] in
  let s = Solver.create () in
  List.iter (Solver.add_clause s) clauses;
  match Solver.solve s with
  | Solver.Unsat -> Alcotest.fail "expected sat"
  | Solver.Sat m ->
      List.iter
        (fun clause ->
          check_bool "clause satisfied" true
            (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) clause))
        clauses

let test_incremental () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check_bool "sat" true (is_sat (Solver.solve s));
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ -2 ];
  check_bool "now unsat" false (is_sat (Solver.solve s));
  check_bool "stays unsat" false (is_sat (Solver.solve s))

let test_assumptions () =
  let s = Solver.create () in
  Solver.add_clause s [ -1; 2 ];
  Solver.add_clause s [ -2; 3 ];
  (match Solver.solve ~assumptions:[ 1; -3 ] s with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "expected unsat under assumptions");
  (* Solver still usable and satisfiable without assumptions. *)
  check_bool "recovers" true (is_sat (Solver.solve s));
  match Solver.solve ~assumptions:[ 1 ] s with
  | Solver.Sat m ->
      check_bool "chain" true (m.(1) && m.(2) && m.(3))
  | Solver.Unsat -> Alcotest.fail "expected sat"

(* ------------------------------------------------------------------ *)
(* Random instances vs. brute force *)

let brute_force nvars clauses =
  (* Try all assignments. *)
  let rec loop asg =
    if asg >= 1 lsl nvars then false
    else
      let value v = asg land (1 lsl (v - 1)) <> 0 in
      let ok =
        List.for_all
          (List.exists (fun l -> if l > 0 then value l else not (value (-l))))
          clauses
      in
      ok || loop (asg + 1)
  in
  loop 0

let random_3sat rng nvars nclauses =
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + Prng.int rng nvars in
          if Prng.bool rng then v else -v))

let test_random_vs_brute () =
  let rng = Prng.create 2018 in
  for _ = 1 to 60 do
    let nvars = 4 + Prng.int rng 9 in
    let nclauses = 3 + Prng.int rng (4 * nvars) in
    let clauses = random_3sat rng nvars nclauses in
    let s = Solver.create ~nvars () in
    List.iter (Solver.add_clause s) clauses;
    let expected = brute_force nvars clauses in
    match Solver.solve s with
    | Solver.Sat m ->
        check_bool "brute agrees (sat)" true expected;
        List.iter
          (fun clause ->
            check_bool "model ok" true
              (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) clause))
          clauses
    | Solver.Unsat -> check_bool "brute agrees (unsat)" false expected
  done

let test_hard_random () =
  (* Near the phase transition (ratio ~4.26); just must terminate and be
     self-consistent on a model. *)
  let rng = Prng.create 99 in
  for _ = 1 to 10 do
    let nvars = 40 in
    let clauses = random_3sat rng nvars 170 in
    let s = Solver.create ~nvars () in
    List.iter (Solver.add_clause s) clauses;
    match Solver.solve s with
    | Solver.Sat m ->
        List.iter
          (fun clause ->
            check_bool "model ok" true
              (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) clause))
          clauses
    | Solver.Unsat -> ()
  done

(* ------------------------------------------------------------------ *)
(* Header encodings *)

let test_find_rule_input () =
  (* e2's input in Figure 3: 001xxxxx − 0010xxxx = 0011xxxx. *)
  let h =
    HE.find_rule_input ~match_:(Cube.of_string "001xxxxx")
      ~overlaps:[ Cube.of_string "0010xxxx" ]
  in
  match h with
  | None -> Alcotest.fail "expected header"
  | Some h ->
      check_bool "in match" true (Hspace.Header.matches h (Cube.of_string "001xxxxx"));
      check_bool "outside overlap" false
        (Hspace.Header.matches h (Cube.of_string "0010xxxx"))

let test_find_rule_input_empty () =
  (* c1 -> e2 in the paper: 00100xxx fully covered by 0010xxxx. *)
  check_bool "unsat" true
    (HE.find_rule_input ~match_:(Cube.of_string "00100xxx")
       ~overlaps:[ Cube.of_string "0010xxxx" ]
    = None)

let test_unique_headers () =
  (* Ask for 8 distinct headers in a cube with exactly 8 members. *)
  let inside = [ Cube.of_string "00000xxx" ] in
  let rec collect acc n =
    if n = 0 then acc
    else
      match HE.find_header ~distinct_from:acc ~inside 8 with
      | Some h -> collect (h :: acc) (n - 1)
      | None -> Alcotest.fail "expected another header"
  in
  let headers = collect [] 8 in
  let uniq = List.sort_uniq Hspace.Header.compare headers in
  Alcotest.(check int) "8 distinct" 8 (List.length uniq);
  (* The 9th must not exist. *)
  check_bool "exhausted" true (HE.find_header ~distinct_from:headers ~inside 8 = None)

let test_avoid_cubes () =
  let inside = [ Cube.of_string "xxxxxxxx" ] in
  let avoid = [ Cube.of_string "1xxxxxxx"; Cube.of_string "01xxxxxx" ] in
  match HE.find_header ~avoid ~inside 8 with
  | None -> Alcotest.fail "expected header"
  | Some h ->
      check_bool "avoids both" true
        (not (Hspace.Header.matches h (List.nth avoid 0))
        && not (Hspace.Header.matches h (List.nth avoid 1)))

let prop_find_matches_hs =
  (* find_rule_input agrees with the HSA computation of r.in. *)
  let gen =
    QCheck.Gen.(
      let gen_bit =
        frequency [ (2, return Cube.Zero); (2, return Cube.One); (3, return Cube.Any) ]
      in
      let gen_cube = map (fun b -> Cube.of_bits (Array.of_list b)) (list_size (return 10) gen_bit) in
      pair gen_cube (list_size (int_bound 4) gen_cube))
  in
  QCheck.Test.make ~name:"SAT witness agrees with HSA emptiness" ~count:300
    (QCheck.make gen)
    (fun (m, overlaps) ->
      let hs = List.fold_left (fun acc o -> Hs.diff_cube acc o) (Hs.of_cube m) overlaps in
      match HE.find_rule_input ~match_:m ~overlaps with
      | Some h -> Hs.mem (h :> Cube.t) hs
      | None -> Hs.is_empty hs)

(* A distinct-from query inside one cube returns the cube's first
   member whenever that member is not among the taken headers (members
   of the cube). On such a cube the certifier's bit-fixing replay of
   the lex-least headers (Sdnprobe.Certify) is done after one query:
   the witness already has every free bit 0. *)
let prop_first_member_when_free =
  let gen =
    QCheck.Gen.(
      let gen_bit =
        frequency [ (1, return Cube.Zero); (1, return Cube.One); (3, return Cube.Any) ]
      in
      triple (list_size (1 -- 11) gen_bit) (int_bound 40) int)
  in
  QCheck.Test.make ~name:"taken-free first member is the SAT answer" ~count:500
    (QCheck.make gen)
    (fun (bits, k, seed) ->
      let bits = Array.of_list bits in
      let cube = Cube.of_bits bits in
      let first = Hspace.Header.of_cube (Cube.first_member cube) in
      let rng = Prng.create seed in
      let member () =
        Hspace.Header.of_cube
          (Cube.of_bits
             (Array.map
                (function
                  | Cube.Any -> if Prng.bool rng then Cube.One else Cube.Zero
                  | b -> b)
                bits))
      in
      let taken =
        List.filter
          (fun h -> not (Hspace.Header.equal h first))
          (List.init k (fun _ -> member ()))
      in
      match HE.find_header ~distinct_from:taken ~inside:[ cube ] (Array.length bits) with
      | Some h -> Hspace.Header.equal h first
      | None -> false)

(* ...and nothing stronger: once the first member is taken the answer
   need not be the lexicographically least free member (phase saving
   and activity bumping steer the search). The taken list is newest
   first: 00 was taken, then 01; the least free member is 10. This is
   why header assignment picks lex-least members with a cursor of its
   own and the solver only certifies them, by bit-fixing
   ([Sdnprobe.Certify]): a raw model is no canonical answer. *)
let test_not_lex_least () =
  let h =
    HE.find_header
      ~distinct_from:[ Hspace.Header.of_string "01"; Hspace.Header.of_string "00" ]
      ~inside:[ Cube.of_string "xx" ] 2
  in
  Alcotest.(check (option string))
    "answer" (Some "11")
    (Option.map Hspace.Header.to_string h)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "empty problem" `Quick test_empty_problem;
          Alcotest.test_case "unit clauses" `Quick test_unit_clauses;
          Alcotest.test_case "contradiction" `Quick test_contradiction;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "model satisfies" `Quick test_model_satisfies;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "random vs brute force" `Quick test_random_vs_brute;
          Alcotest.test_case "hard random" `Quick test_hard_random;
        ] );
      ( "header encoding",
        [
          Alcotest.test_case "find rule input" `Quick test_find_rule_input;
          Alcotest.test_case "find rule input empty" `Quick test_find_rule_input_empty;
          Alcotest.test_case "unique headers" `Quick test_unique_headers;
          Alcotest.test_case "avoid cubes" `Quick test_avoid_cubes;
          QCheck_alcotest.to_alcotest prop_find_matches_hs;
          QCheck_alcotest.to_alcotest prop_first_member_when_free;
          Alcotest.test_case "not lexicographically least" `Quick test_not_lex_least;
        ] );
    ]
