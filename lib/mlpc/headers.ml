module Hs = Hspace.Hs
module Cube = Hspace.Cube
module Header = Hspace.Header

type policy =
  | Deterministic
  | Sat_unique
  | Random of Sdn_util.Prng.t
  | Traffic_weighted of Traffic.t * Sdn_util.Prng.t

let first_member hs = Option.map Header.of_cube (Hs.first_member hs)

let random_pick rng ~taken hs =
  (* Rejection sampling for distinctness; falls back to a duplicate when
     the space is smaller than the number of paths sharing it. *)
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

(* One draw of a randomized policy: from the observed traffic inside
   the space when there is some, else uniform; [taken] steers the
   rejection sampling of the uniform draw. *)
let random_draw ~taken traffic rng hs =
  match Option.bind traffic (fun t -> Traffic.sample_in t rng hs) with
  | Some h -> Some h
  | None -> random_pick rng ~taken hs

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
         pure function of the path's start space and the {e set} of
         headers chosen before it, so as long as a new cover's prefix
         matches the transcript — same keys, same space representations
         (same cubes in the same order, the order the lex-least search
         tries them) — the recorded choices replay verbatim. The first
         mismatching position invalidates the rest (its choice changes
         the taken set every later pick depends on). *)
}

let memo_create () = { transcript = [||] }

let hs_repr_equal a b =
  let ca = Hs.cubes a and cb = Hs.cubes b in
  List.compare_lengths ca cb = 0 && List.for_all2 Cube.equal ca cb

module Cube_tbl = Hashtbl.Make (Cube)

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
  let seen_tbl : (string, unit) Hashtbl.t = Hashtbl.create (max 16 nn) in
  let taken h = Hashtbl.mem seen_tbl (Header.to_string h) in
  let record h = Hashtbl.replace seen_tbl (Header.to_string h) () in
  (* [Sat_unique]: the lex-least free member of the first cube that has
     one. Each cube keeps a cursor, an index in [Cube.nth_member] order
     (lexicographic over the free bits), below which every member is
     taken. The taken set only grows within one call, so a cursor only
     moves forward and each collision costs amortized O(1) steps. A
     cube is exhausted when its cursor passes its 2^free members (never,
     at 62 or more free bits). *)
  let cursors : int ref Cube_tbl.t = Cube_tbl.create 64 in
  let lex_least_free cube =
    let cur =
      match Cube_tbl.find_opt cursors cube with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Cube_tbl.add cursors cube c;
          c
    in
    let free = Cube.wildcard_count cube in
    let rec scan () =
      if free < 62 && !cur >= 1 lsl free then None
      else
        let h = Header.of_cube (Cube.nth_member cube !cur) in
        if taken h then (incr cur; scan ()) else Some h
    in
    scan ()
  in
  let unique_pick hs =
    match List.find_map lex_least_free (Hs.cubes hs) with
    | Some h -> Some h
    | None ->
        (* Every cube exhausted by distinctness: reuse a (duplicate)
           deterministic member rather than drop the path. *)
        first_member hs
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
  (* One pass in path order. A randomized path takes its unconstrained
     draw unless an earlier path took it, and only then draws again,
     from the same stream, rejecting taken headers. *)
  for i = start to nn - 1 do
    let hs = paths.(i).Cover.start_space in
    let draw traffic rng =
      match random_draw ~taken:(fun _ -> false) traffic rng hs with
      | Some h when not (taken h) -> Some h
      | _ -> random_draw ~taken traffic rng hs
    in
    let h =
      match per_path i with
      | Deterministic -> first_member hs
      | Sat_unique -> unique_pick hs
      | Random rng -> draw None rng
      | Traffic_weighted (traffic, rng) -> draw (Some traffic) rng
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
