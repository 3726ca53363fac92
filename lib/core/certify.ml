(* End-to-end plan certification.

   Each section re-establishes one pillar of the probe-generation
   pipeline with an independent checker from {!Cert}:

   - sat: the Sat_unique header assignment (lex-least unique headers)
     is re-derived by SAT bit-fixing with proof logging on; every Sat
     answer is checked against every problem clause, every Unsat answer
     against its DRUP derivation, and the rebuilt headers must coincide
     bit-for-bit with the plan's.
   - matching: an unconstrained Hopcroft–Karp maximum matching of the
     MLPC bipartite graph, certified maximum by a König vertex cover;
     |paths| = n_testable − |M| then pins the cover minimum (Theorem 1).
   - cover: every probe carries a (rule sequence, header) witness that
     is replayed cache-free through the real lookup semantics, and the
     coverage bitmap is recomputed from the flow tables.
   - yen: sampled k-shortest-path queries over the topology are
     re-checked (validity, looplessness, ordering, Bellman–Ford
     shortest distance).

   A report is a list of named boolean checks; certification succeeds
   iff all hold. *)

module RG = Rulegraph.Rule_graph
module HK = Sdngraph.Hopcroft_karp
module Digraph = Sdngraph.Digraph
module Hs = Hspace.Hs
module Cube = Hspace.Cube
module Header = Hspace.Header
module Json = Sdn_util.Json

type check = { name : string; ok : bool; detail : string }
type section = { title : string; checks : check list }

type report = {
  sections : section list;
  patch_events : Report.patch_event list;
}

let ok_report r =
  List.for_all (fun s -> List.for_all (fun c -> c.ok) s.checks) r.sections

let pass name detail = { name; ok = true; detail }
let fail name detail = { name; ok = false; detail }
let of_result name = function
  | Ok () -> pass name "ok"
  | Error msg -> fail name msg

(* ------------------------------------------------------------------ *)
(* SAT section: Headers.assign Sat_unique re-derived by the solver,
   with certificates. The planner picks each path's lexicographically
   least free member (first cube of its start space that has one, free
   bits in order) with a per-cube cursor; this section rebuilds the same
   header by classic SAT bit-fixing, sharing no code with the cursor,
   so on a Static plan the certified headers must equal the plan's
   probe headers. *)

(* DIMACS variable k+1 is header bit k (Header_encoding's convention);
   the model array is indexed by variable number, slot 0 unused. *)
let header_model nvars h =
  let model = Array.make (nvars + 1) false in
  let len = min nvars (Header.length h) in
  for i = 0 to len - 1 do
    model.(i + 1) <- Header.get h i
  done;
  model

let certify_query acc (c : Sat.Header_encoding.certified) =
  match c.header with
  | Some h ->
      let model = header_model c.nvars h in
      let r = Cert.Drup.check_model ~clauses:c.clauses model in
      (match r with
      | Ok () -> acc
      | Error e -> fail "sat/model" (Cert.Drup.error_to_string e) :: acc)
  | None -> (
      match Cert.Drup.check ~nvars:c.nvars ~clauses:c.clauses ~proof:c.proof () with
      | Ok () -> acc
      | Error e ->
          fail "sat/proof" (Cert.Drup.error_to_string e) :: acc)

(* Every query asks for a member of one cube [q] that differs from the
   earlier headers inside [q] (headers outside it make their blocking
   clause vacuous); each issued query's certificate is collected. *)
let free_member_certified ~seen q queries =
  let c =
    Sat.Header_encoding.find_header_certified
      ~distinct_from:(List.filter (fun h -> Header.matches h q) seen)
      ~inside:[ q ] (Cube.length q)
  in
  queries := c :: !queries;
  c.header

(* The lex-least free member of the first cube of [hs] that has one.
   Bit-fixing: with a free member [w] of the prefix cube [q] in hand,
   each free bit k in order is fixed to 0 when some free member of [q]
   has it 0, else to 1. When [w] has bit k = 0 it is that member (its
   model was checked when it was found) and no query is needed;
   otherwise the query over [q] with bit k = 0 either yields the next
   witness or is refuted. *)
let lex_least_certified ~seen hs queries =
  let rec fix q w k =
    if k >= Cube.length q then w
    else
      match Cube.get q k with
      | Cube.Zero | Cube.One -> fix q w (k + 1)
      | Cube.Any -> (
          let q0 = Cube.set q k Cube.Zero in
          if not (Header.get w k) then fix q0 w (k + 1)
          else
            match free_member_certified ~seen q0 queries with
            | Some w0 -> fix q0 w0 (k + 1)
            | None -> fix (Cube.set q k Cube.One) w (k + 1))
  in
  List.find_map
    (fun cube ->
      Option.map (fun w -> fix cube w 0) (free_member_certified ~seen cube queries))
    (Hs.cubes hs)

let sat_headers spaces plan_headers =
  let queries = ref [] in
  let _, replayed =
    List.fold_left
      (fun (seen, acc) hs ->
        let h =
          match lex_least_certified ~seen hs queries with
          | Some h -> Some h
          | None -> Option.map Header.of_cube (Hs.first_member hs)
        in
        match h with
        | Some h -> (h :: seen, h :: acc)
        | None -> (seen, acc))
      ([], []) spaces
  in
  let replayed = List.rev replayed in
  let checks = List.fold_left certify_query [] !queries in
  let agree =
    List.length replayed = List.length plan_headers
    && List.for_all2 Header.equal replayed plan_headers
  in
  let nq = List.length !queries in
  let checks =
    (if agree then
       pass "sat/headers-agree"
         (Printf.sprintf
            "replayed %d certified quer%s; headers match the plan's %d \
             probe header(s) bit-for-bit"
            nq
            (if nq = 1 then "y" else "ies")
            (List.length plan_headers))
     else
       fail "sat/headers-agree"
         (Printf.sprintf
            "certified replay yields %d header(s), plan carries %d, or \
             some differ"
            (List.length replayed) (List.length plan_headers)))
    :: checks
  in
  let checks =
    if List.exists (fun c -> not c.ok) checks then checks
    else
      let nsat =
        List.length
          (List.filter
             (fun (c : Sat.Header_encoding.certified) -> Option.is_some c.header)
             !queries)
      in
      pass "sat/certificates"
        (Printf.sprintf
           "%d Sat model(s) checked against every clause, %d Unsat \
            answer(s) DRUP-checked"
           nsat (nq - nsat))
      :: checks
  in
  { title = "sat"; checks = List.rev checks }

let sat_section (plan : Plan.t) =
  match plan.mode with
  | Plan.Randomized _ ->
      {
        title = "sat";
        checks =
          [
            pass "sat/skipped"
              "randomized plans draw headers uniformly, no SAT queries to \
               certify";
          ];
      }
  | Plan.Static ->
      sat_headers
        (List.map (fun (p : Mlpc.Cover.path) -> p.start_space) plan.cover.paths)
        (List.map (fun (p : Probe.t) -> p.header) plan.probes)

(* ------------------------------------------------------------------ *)
(* Matching section: the MLPC bipartite graph (every closure edge
   (u, v) over testable vertices becomes (u, v')), an unconstrained
   maximum matching with König certificate, and the Theorem-1 count. *)

let bipartite_of_rulegraph rg =
  let n = RG.n_vertices rg in
  let g = RG.graph rg in
  let testable = Array.init n (fun v -> not (Hs.is_empty (RG.input rg v))) in
  let adj =
    Array.init n (fun u ->
        if testable.(u) then
          List.filter (fun v -> testable.(v)) (Digraph.succ g u)
        else [])
  in
  let n_testable = Array.fold_left (fun a t -> if t then a + 1 else a) 0 testable in
  (adj, n_testable)

let matching_section (plan : Plan.t) =
  let rg = plan.rulegraph in
  let n = RG.n_vertices rg in
  let adj, n_testable = bipartite_of_rulegraph rg in
  let m = HK.run ~nl:n ~nr:n adj in
  let cover_left, cover_right = HK.konig_cover ~nl:n ~nr:n adj m in
  let cert =
    {
      Cert.Konig.nl = n;
      nr = n;
      adj;
      match_l = m.match_l;
      match_r = m.match_r;
      cover_left;
      cover_right;
    }
  in
  let konig = of_result "matching/konig" (Cert.Konig.check cert) in
  let n_paths = List.length plan.cover.paths in
  let bound = n_testable - m.size in
  let minimal =
    if konig.ok && n_paths = bound then
      pass "matching/theorem1"
        (Printf.sprintf
           "|paths| = %d = %d testable − %d matched: cover certified \
            minimum (König + Theorem 1)"
           n_paths n_testable m.size)
    else if not konig.ok then
      fail "matching/theorem1" "König certificate invalid, no bound available"
    else if n_paths < bound then
      fail "matching/theorem1"
        (Printf.sprintf
           "|paths| = %d below the Theorem-1 floor %d (= %d testable − %d \
            matched): the cover cannot be a legal path partition"
           n_paths bound n_testable m.size)
    else
      match plan.mode with
      | Plan.Randomized _ ->
          pass "matching/theorem1"
            (Printf.sprintf
               "|paths| = %d ≥ minimum %d (= %d testable − %d matched): \
                randomized plans trade minimality for endpoint diversity, \
                only the lower bound is claimed"
               n_paths bound n_testable m.size)
      | Plan.Static ->
          (* Legality can force the gap (the paper's Fig. 3 does: its
             minimum legal cover has 4 paths, the unconstrained bound is
             3), so a gap is an honest partial certificate — the cover
             is within |paths| − bound of optimal — not a failure. *)
          pass "matching/theorem1"
            (Printf.sprintf
               "|paths| = %d, unconstrained lower bound %d (= %d testable − \
                %d matched): minimality not certified, the legality \
                constraints may force the gap of %d"
               n_paths bound n_testable m.size (n_paths - bound))
  in
  { title = "matching"; checks = [ konig; minimal ] }

(* ------------------------------------------------------------------ *)
(* Cover section: replay every probe's path witness and recompute the
   coverage bitmap, all through Cert.Replay (no rule-graph caches). *)

let cover_section (plan : Plan.t) =
  let net = plan.network in
  let rg = plan.rulegraph in
  let path_checks =
    List.map
      (fun (p : Probe.t) ->
        of_result
          (Printf.sprintf "cover/path-%d" p.id)
          (Cert.Replay.check_path net
             { Cert.Replay.rules = p.rules; header = p.header }))
      plan.probes
  in
  let untestable_entries =
    List.map (fun v -> (RG.vertex_entry rg v).Openflow.Flow_entry.id)
      plan.cover.untestable
  in
  let coverage =
    of_result "cover/coverage"
      (Cert.Replay.check_coverage net
         ~paths:(List.map (fun (p : Probe.t) -> p.rules) plan.probes)
         ~untestable:untestable_entries)
  in
  let failures = List.filter (fun c -> not c.ok) path_checks in
  let summary =
    if failures = [] then
      pass "cover/paths"
        (Printf.sprintf "%d path witness(es) replayed cache-free"
           (List.length path_checks))
    else
      fail "cover/paths"
        (Printf.sprintf "%d of %d path witness(es) fail replay"
           (List.length failures) (List.length path_checks))
  in
  { title = "cover"; checks = (summary :: failures) @ [ coverage ] }

(* ------------------------------------------------------------------ *)
(* Yen section: sampled k-shortest-path queries over the topology,
   re-checked path by path with an independent Bellman–Ford. *)

let yen_section ?(pairs = 8) ?(k = 8) ~seed (plan : Plan.t) =
  let g = Openflow.Topology.to_digraph (Openflow.Network.topology plan.network) in
  let n = Digraph.n_vertices g in
  if n < 2 then
    { title = "yen"; checks = [ pass "yen/skipped" "topology below 2 switches" ] }
  else begin
    let rng = Sdn_util.Prng.create seed in
    let checks = ref [] in
    for _ = 1 to pairs do
      let src = Sdn_util.Prng.int rng n in
      let dst = (src + 1 + Sdn_util.Prng.int rng (n - 1)) mod n in
      let paths = Sdngraph.Yen.k_shortest g ~src ~dst ~k in
      checks :=
        of_result
          (Printf.sprintf "yen/%d->%d" src dst)
          (Cert.Yen_check.check g ~src ~dst ~k paths)
        :: !checks
    done;
    { title = "yen"; checks = List.rev !checks }
  end

let run ?(yen_pairs = 8) ?(seed = 7) (plan : Plan.t) =
  {
    sections =
      [
        sat_section plan;
        matching_section plan;
        cover_section plan;
        yen_section ~pairs:yen_pairs ~seed plan;
      ];
    patch_events = [];
  }

(* ------------------------------------------------------------------ *)
(* Patch section: check a Plan.patch against the probe lists it claims
   to connect, with the certifier's own multiset bookkeeping (the diff
   algorithm is not trusted). The before-plan's witnesses cannot be
   replayed — its network has already been mutated in place — so the
   patch is certified as an accounting identity between the two probe
   lists, and the after-plan is certified in full as usual. *)

let probe_key (p : Probe.t) = (p.Probe.rules, Header.to_string p.Probe.header)

(* Multiset difference over sorted key lists; [None] when [small] is
   not contained in [big]. *)
let rec msub big small =
  match (big, small) with
  | rest, [] -> Some rest
  | [], _ :: _ -> None
  | b :: brest, s :: srest ->
      let c = compare b s in
      if c = 0 then msub brest srest
      else if c < 0 then
        match msub brest small with Some r -> Some (b :: r) | None -> None
      else None

let patch_section ~(before : Probe.t list) (patch : Plan.patch)
    (after : Plan.t) =
  let sorted l = List.sort compare (List.map probe_key l) in
  let rw_old = List.map fst patch.Plan.rewritten in
  let rw_new = List.map snd patch.Plan.rewritten in
  let rewritten_ok =
    List.for_all
      (fun ((o : Probe.t), (n : Probe.t)) ->
        o.Probe.rules = n.Probe.rules
        && not (Header.equal o.Probe.header n.Probe.header))
      patch.Plan.rewritten
  in
  let survivors_before = msub (sorted before) (sorted (patch.Plan.removed @ rw_old)) in
  let survivors_after =
    msub (sorted after.Plan.probes) (sorted (patch.Plan.added @ rw_new))
  in
  let ids_ok =
    List.for_all2 (fun i (p : Probe.t) -> p.Probe.id = i)
      (List.init (List.length after.Plan.probes) Fun.id)
      after.Plan.probes
  in
  let checks =
    [
      (if rewritten_ok then
         pass "patch/rewritten"
           (Printf.sprintf
              "%d rewritten pair(s): same rule sequence, different header"
              (List.length patch.Plan.rewritten))
       else
         fail "patch/rewritten"
           "a rewritten pair changes its rule sequence or keeps its header");
      (match survivors_before with
      | Some _ ->
          pass "patch/before-accounted"
            (Printf.sprintf
               "%d removed + %d rewritten-from probe(s) all present in the \
                pre-edit plan"
               (List.length patch.Plan.removed)
               (List.length rw_old))
      | None ->
          fail "patch/before-accounted"
            "a removed or rewritten-from probe is not in the pre-edit plan");
      (match survivors_after with
      | Some _ ->
          pass "patch/after-accounted"
            (Printf.sprintf
               "%d added + %d rewritten-to probe(s) all present in the \
                post-edit plan"
               (List.length patch.Plan.added)
               (List.length rw_new))
      | None ->
          fail "patch/after-accounted"
            "an added or rewritten-to probe is not in the post-edit plan");
      (match (survivors_before, survivors_after) with
      | Some sb, Some sa when sb = sa ->
          pass "patch/survivors-agree"
            (Printf.sprintf
               "%d surviving (path, header) pair(s) identical on both sides"
               (List.length sb))
      | Some _, Some _ ->
          fail "patch/survivors-agree"
            "probes the patch leaves untouched differ between the two plans"
      | _ ->
          fail "patch/survivors-agree"
            "survivor sets undefined (an accounting check already failed)");
      (if ids_ok then
         pass "patch/ids-canonical"
           (Printf.sprintf "post-edit probe ids are 0..%d in plan order"
              (List.length after.Plan.probes - 1))
       else fail "patch/ids-canonical" "post-edit probe ids are not 0..n−1");
      pass "patch/provenance"
        (Printf.sprintf "%d edit op(s) → +%d −%d ~%d probe(s)"
           (List.length patch.Plan.edits)
           (List.length patch.Plan.added)
           (List.length patch.Plan.removed)
           (List.length patch.Plan.rewritten));
    ]
  in
  { title = "patch"; checks }

let run_patch ?(yen_pairs = 8) ?(seed = 7) ?event ~before ~patch
    (after : Plan.t) =
  let base = run ~yen_pairs ~seed after in
  {
    sections = patch_section ~before patch after :: base.sections;
    patch_events = Option.to_list event;
  }

(* ------------------------------------------------------------------ *)

let check_to_json c =
  Json.Obj
    [ ("name", Json.Str c.name); ("ok", Json.Bool c.ok); ("detail", Json.Str c.detail) ]

let schema_version = 2

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("certified", Json.Bool (ok_report r));
      ( "sections",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("title", Json.Str s.title);
                   ("ok", Json.Bool (List.for_all (fun c -> c.ok) s.checks));
                   ("checks", Json.List (List.map check_to_json s.checks));
                 ])
             r.sections) );
      ("patch_events", Json.List (List.map Report.patch_event_to_json r.patch_events));
    ]

let ( let* ) o f = match o with Some x -> f x | None -> Error "missing or mistyped field"

let require_all f xs =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> loop (y :: acc) rest | Error _ as e -> e)
  in
  loop [] xs

let check_of_json v =
  let* name = Json.obj_str "name" v in
  let* ok = Option.bind (Json.member "ok" v) (function
    | Json.Bool b -> Some b
    | _ -> None)
  in
  let* detail = Json.obj_str "detail" v in
  Ok { name; ok; detail }

let section_of_json v =
  let* title = Json.obj_str "title" v in
  let* checks_v = Json.obj_list "checks" v in
  Result.bind (require_all check_of_json checks_v) @@ fun checks ->
  Ok { title; checks }

let of_json v =
  match Json.obj_int "schema_version" v with
  | None -> Error "missing schema_version"
  | Some version when version <> 1 && version <> schema_version ->
      Error
        (Printf.sprintf "unsupported certify schema_version %d (expected 1..%d)"
           version schema_version)
  | Some version ->
      let* sections_v = Json.obj_list "sections" v in
      (* [patch_events] arrived with v2. *)
      let* patch_events_v =
        if version = 1 then Some [] else Json.obj_list "patch_events" v
      in
      Result.bind (require_all section_of_json sections_v) @@ fun sections ->
      Result.bind (require_all Report.patch_event_of_json patch_events_v)
      @@ fun patch_events -> Ok { sections; patch_events }

let pp ppf r =
  List.iter
    (fun s ->
      let sec_ok = List.for_all (fun c -> c.ok) s.checks in
      Format.fprintf ppf "@[<v 2>[%s] %s@,"
        (if sec_ok then "PASS" else "FAIL")
        s.title;
      List.iter
        (fun c ->
          if (not c.ok) || String.length c.detail > 0 then
            Format.fprintf ppf "%s %s: %s@,"
              (if c.ok then "ok  " else "FAIL")
              c.name c.detail)
        s.checks;
      Format.fprintf ppf "@]@,")
    r.sections;
  Format.fprintf ppf "certification: %s@."
    (if ok_report r then "PASS" else "FAIL")
