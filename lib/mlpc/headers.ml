module Hs = Hspace.Hs
module Cube = Hspace.Cube
module Header = Hspace.Header

type policy =
  | Deterministic
  | Sat_unique
  | Random of Sdn_util.Prng.t
  | Traffic_weighted of Traffic.t * Sdn_util.Prng.t

let sat_pick ~distinct_from hs =
  (* Try each cube of the space until the SAT query finds a header that
     differs from all previously chosen ones. Headers outside the cube
     make their distinct-from clause vacuous (any model inside the cube
     satisfies it), so only the taken headers inside the cube are
     passed — which is what keeps the query small on thousand-path
     covers. *)
  match distinct_from with
  | [] ->
      (* Unconstrained query: the solver's model over [inside:[cube]]
         alone is unit propagation of the fixed bits plus false for
         every free bit — the cube's first member. Answering from the
         cube directly (no solver instance) is what keeps header
         assignment linear on thousand-path covers. *)
      Option.map Header.of_cube (Hs.first_member hs)
  | _ :: _ ->
  let rec loop = function
    | [] -> None
    | cube :: rest -> (
        let relevant = List.filter (fun h -> Header.matches h cube) distinct_from in
        match
          Sat.Header_encoding.find_header ~distinct_from:relevant ~inside:[ cube ]
            (Cube.length cube)
        with
        | Some h -> Some h
        | None -> loop rest)
  in
  loop (Hs.cubes hs)

let random_pick rng ~distinct_from hs =
  (* Rejection sampling for distinctness; falls back to a duplicate when
     the space is smaller than the number of paths sharing it. *)
  let taken h = List.exists (Header.equal h) distinct_from in
  let rec loop attempts =
    match Hs.sample rng hs with
    | None -> None
    | Some c ->
        let h = Header.of_cube c in
        if (not (taken h)) && attempts < 64 then Some h
        else if taken h && attempts < 64 then loop (attempts + 1)
        else Some h
  in
  loop 0

let header_for_path ?(distinct_from = []) policy (p : Cover.path) =
  match policy with
  | Deterministic -> Option.map Header.of_cube (Hs.first_member p.Cover.start_space)
  | Sat_unique -> (
      match sat_pick ~distinct_from p.Cover.start_space with
      | Some h -> Some h
      | None ->
          (* Space exhausted by distinctness constraints: fall back to a
             (duplicate) deterministic member. *)
          Option.map Header.of_cube (Hs.first_member p.Cover.start_space))
  | Random rng -> random_pick rng ~distinct_from p.Cover.start_space
  | Traffic_weighted (traffic, rng) -> (
      match Traffic.sample_in traffic rng p.Cover.start_space with
      | Some h -> Some h
      | None -> random_pick rng ~distinct_from p.Cover.start_space)

(* Per-path PRNG streams: one generator per path, seeded from a single
   draw of the master generator and the path index (golden-ratio Weyl
   step, as inside splitmix64 itself). Draws for path [i] then depend
   only on (master state, i), not on how many draws earlier paths
   made. *)
let stream_of salt i =
  Sdn_util.Prng.create
    (Int64.to_int (Int64.add salt (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)))

(* Transcript memo for the delta planning path. *)
type memo = {
  mutable transcript : (int list * Hs.t * Header.t option) array;
      (* (key, start space, chosen header) of every path of the last
         [assign], in path order. The chosen header at position [i] is a
         pure function of the path's start space and the headers chosen
         before it, so as long as a new cover's prefix matches the
         transcript — same keys, same space representations (same cubes
         in the same order, the order [sat_pick] tries them) — the
         recorded choices replay verbatim, constrained SAT queries
         included. The first mismatching position invalidates the rest
         (its choice changes the seen-set every later query is
         constrained by). *)
}

let memo_create () = { transcript = [||] }

let hs_repr_equal a b =
  let ca = Hs.cubes a and cb = Hs.cubes b in
  List.compare_lengths ca cb = 0 && List.for_all2 Cube.equal ca cb

let assign ?memo ?(key = fun (p : Cover.path) -> p.Cover.rules) policy
    (cover : Cover.t) =
  (* Split randomized policies into per-path streams (see [stream_of]);
     [Deterministic] / [Sat_unique] are shared as-is. *)
  let per_path =
    match policy with
    | Deterministic | Sat_unique -> fun _ -> policy
    | Random master ->
        let salt = Sdn_util.Prng.bits64 master in
        fun i -> Random (stream_of salt i)
    | Traffic_weighted (traffic, master) ->
        let salt = Sdn_util.Prng.bits64 master in
        fun i -> Traffic_weighted (traffic, stream_of salt i)
  in
  let paths = Array.of_list cover.Cover.paths in
  (* The memo only applies to the pure policies: a randomized draw must
     not be replayed from a cache. *)
  let memo =
    match (memo, policy) with
    | Some m, (Deterministic | Sat_unique) -> Some m
    | _ -> None
  in
  let nn = Array.length paths in
  let out = Array.make nn None in
  (* [seen] feeds the constrained re-queries; the hash set answers the
     per-path "is this header taken" membership test, which a list scan
     would make quadratic in the cover size. *)
  let seen = ref [] in
  let seen_tbl : (string, unit) Hashtbl.t = Hashtbl.create (max 16 nn) in
  (* [Sat_unique] collision path: per-cube buckets of the already-taken
     headers that lie inside the cube. [sat_pick] filters the whole
     seen-list per query — quadratic in the cover size when thousands of
     paths share a handful of popular cubes (destination routing). A
     bucket is seeded with exactly that filter's result when its cube is
     first queried and kept current by [record], always in the same
     reverse-chronological order the filter would produce, so the solver
     receives a byte-identical query and the output — certificate
     replays included — is unchanged. *)
  let buckets : (string, Header.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let registered : (Cube.t * Header.t list ref) list ref = ref [] in
  let record h =
    seen := h :: !seen;
    Hashtbl.replace seen_tbl (Header.to_string h) ();
    List.iter
      (fun (cube, b) -> if Header.matches h cube then b := h :: !b)
      !registered
  in
  let bucket_for cube =
    let ckey = Cube.to_string cube in
    match Hashtbl.find_opt buckets ckey with
    | Some b -> b
    | None ->
        let b = ref (List.filter (fun h -> Header.matches h cube) !seen) in
        Hashtbl.add buckets ckey b;
        registered := (cube, b) :: !registered;
        b
  in
  let pick_unique (p : Cover.path) =
    let rec try_cubes = function
      | [] ->
          (* Every cube exhausted by distinctness: same duplicate
             fallback as [header_for_path]. *)
          Option.map Header.of_cube (Hs.first_member p.Cover.start_space)
      | cube :: rest -> (
          match
            Sat.Header_encoding.find_header ~distinct_from:!(bucket_for cube)
              ~inside:[ cube ] (Cube.length cube)
          with
          | Some h -> Some h
          | None -> try_cubes rest)
    in
    try_cubes (Hs.cubes p.Cover.start_space)
  in
  (* Replay the memoized transcript while the cover's prefix matches it
     (see the [memo] type), then assign normally from the first
     divergence on. *)
  let start =
    match memo with
    | None -> 0
    | Some m ->
        let tr = m.transcript in
        let i = ref 0 in
        let matching = ref true in
        while !matching && !i < nn && !i < Array.length tr do
          let p = paths.(!i) in
          let k0, hs0, ch = tr.(!i) in
          if k0 = key p && hs_repr_equal hs0 p.Cover.start_space then begin
            out.(!i) <- ch;
            (match ch with Some h -> record h | None -> ());
            incr i
          end
          else matching := false
        done;
        !i
  in
  (* One pass in path order: take the path's unconstrained pick unless
     an earlier path took it, else run the constrained query. For
     [Sat_unique] this is the fold of [header_for_path ~distinct_from]
     because the solver returns the first member of a cube whenever that
     member is not taken (test_sat pins this); a randomized path draws
     its constrained pick from the same stream as its unconstrained
     one. *)
  for i = start to nn - 1 do
    let p = paths.(i) and pol = per_path i in
    let taken h = Hashtbl.mem seen_tbl (Header.to_string h) in
    let h =
      match header_for_path pol p with
      | Some h when not (taken h) -> Some h
      | _ -> (
          match pol with
          | Sat_unique -> pick_unique p
          | _ -> header_for_path ~distinct_from:!seen pol p)
    in
    out.(i) <- h;
    match h with Some h -> record h | None -> ()
  done;
  (match memo with
  | Some m ->
      m.transcript <- Array.mapi (fun i p -> (key p, p.Cover.start_space, out.(i))) paths
  | None -> ());
  Array.to_list paths
  |> List.mapi (fun i p -> Option.map (fun h -> (p, h)) out.(i))
  |> List.filter_map Fun.id
