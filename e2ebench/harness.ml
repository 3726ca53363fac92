(* Measurement machinery for the end-to-end localization benchmark:
   order statistics, an in-memory span recorder, metric-name checks and
   a span-recording wrapper around the probe-delivery backend. Everything here
   observes the library from outside; nothing in lib/ is instrumented. *)

let now = Sdn_util.Mono.now_s

(* CPU time of the whole process (user + system), in seconds. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A timed phase read on both clocks. For a phase that runs in one
   domain and does no I/O, [cpu] is its wall time less the time the
   host did not run the process. *)
type clock = { wall : float; cpu : float }

let add a b = { wall = a.wall +. b.wall; cpu = a.cpu +. b.cpu }

let measure f =
  let w0 = now () and c0 = cpu_now () in
  let r = f () in
  (r, { wall = now () -. w0; cpu = cpu_now () -. c0 })

let scale k c = { wall = c.wall *. k; cpu = c.cpu *. k }

(* ------------------------------------------------------------------ *)
(* Host speed

   On a shared host, other tenants slow memory-bound code by up to half
   again for tens of seconds at a time, and process CPU time shows the
   slowdown as much as wall time does (pure arithmetic is not slowed).
   So a fixed kernel that allocates short-lived trees and chases
   pointers, as the planner does, but calls no code of the repository,
   is timed next to every measured phase. A phase's time is then read
   at the speed at which the kernel takes [reference_kernel_s]: scaled
   by [reference_kernel_s /. kernel time]. On a 2-core Xeon host this
   cut the spread of 28 s medians of a fixed planning job from 19% to 3%
   (interquartile range over median). *)

module Int_map = Map.Make (Int)

let speed_kernel () =
  let acc = ref 0 in
  for r = 1 to 40 do
    let x = ref r and m = ref Int_map.empty in
    for _ = 1 to 2000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      m := Int_map.add (!x land 0xFFFF) [ !x ] !m
    done;
    acc := Int_map.fold (fun k _ a -> a + k) !m !acc
  done;
  ignore (Sys.opaque_identity !acc)

let reference_kernel_s = 0.02

(* CPU seconds the kernel takes now. *)
let kernel_s () = (snd (measure speed_kernel)).cpu

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> invalid_arg "Harness.median: no samples"
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Candidate tail percentiles in tenths of a percent, highest first
   (integers, so ranks are exact). *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

type tail = { pct : float; value : float; beyond : int; samples : int }

(* The highest ladder percentile with at least ten samples ranked above
   it. Percentiles are nearest-rank: the value at 1-based rank
   ceil(p * n). *)
let tail xs =
  let min_beyond = 10 in
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  List.find_map
    (fun permille ->
      let k = max 1 (((permille * n) + 999) / 1000) in
      let beyond = n - k in
      if n > 0 && beyond >= min_beyond then
        Some { pct = float_of_int permille /. 10.; value = a.(k - 1); beyond; samples = n }
      else None)
    ladder

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  name : string;
  parent : int option;
  run : int;  (** instance number within the process *)
  start_s : float;
  stop_s : float;
  attrs : (string * float) list;  (** counter / GC deltas at the boundary *)
}

type trace = {
  mutable spans : span list;  (** reverse completion order *)
  mutable next_id : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable run : int;
}

let trace_create () = { spans = []; next_id = 0; stack = []; run = 0 }

let set_run t run = t.run <- run

let duration s = s.stop_s -. s.start_s

(* [with_span t name f] times [f] as a child of the innermost open
   span. [attrs] is evaluated before and after and the per-key
   differences are attached (counter and GC deltas). *)
let with_span ?(attrs = fun () -> []) t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let before = attrs () in
  let start_s = now () in
  let finish () =
    let stop_s = now () in
    let after = attrs () in
    let delta =
      List.filter_map
        (fun (k, v) ->
          let d = v -. Option.value ~default:0. (List.assoc_opt k before) in
          if d = 0. then None else Some (k, d))
        after
    in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; run = t.run; start_s; stop_s; attrs = delta } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans

let children spans (s : span) = List.filter (fun c -> c.parent = Some s.id) spans

(* Total length covered by a set of intervals, overlaps counted once. *)
let union_length intervals =
  let sorted_iv = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted_iv
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: the span's duration minus the part of its interval that
   its children cover (children clipped to the parent, overlaps once). *)
let self_time spans (s : span) =
  let clipped =
    List.filter_map
      (fun c ->
        let a = Float.max c.start_s s.start_s and b = Float.min c.stop_s s.stop_s in
        if b > a then Some (a, b) else None)
      (children spans s)
  in
  duration s -. union_length clipped

let span_json (s : span) =
  let module J = Sdn_util.Json in
  J.Obj
    ([
       ("id", J.Int s.id);
       ("name", J.Str s.name);
       ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
       ("run", J.Int s.run);
       ("start_s", J.Float s.start_s);
       ("end_s", J.Float s.stop_s);
     ]
    @ if s.attrs = [] then [] else [ ("attrs", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) s.attrs)) ])

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Sdn_util.Json.to_string (span_json s));
          output_char oc '\n')
        spans)

(* ------------------------------------------------------------------ *)
(* Boundary snapshots: library counters and the OCaml GC. Spans keep
   only the keys that moved. *)

let counters () =
  List.map (fun (k, v) -> (k, float_of_int v)) (Metrics.Counter.snapshot ())

let gc () =
  let s = Gc.quick_stat () in
  [
    ("gc.minor_collections", float_of_int s.Gc.minor_collections);
    ("gc.major_collections", float_of_int s.Gc.major_collections);
    ("gc.promoted_words", s.Gc.promoted_words);
    ("gc.allocated_words", s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words);
  ]

let boundary () = counters () @ gc ()

(* ------------------------------------------------------------------ *)
(* Metric names *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* ------------------------------------------------------------------ *)
(* Backend wrapper *)

type backend_stats = {
  mutable attempts : int;
  mutable batch_probes : int;
  mutable batch_echoes : int;  (** verdicts that came back true *)
}

let stats_create () = { attempts = 0; batch_probes = 0; batch_echoes = 0 }

(* The same backend with every delivery closure recorded as a span under
   the innermost open span of [t] ("backend.attempt",
   "backend.install_traps", "backend.remove_traps", "backend.send_batch"),
   and call counts added to [stats]. Results are passed through
   untouched. *)
let wrap_backend t stats (b : Sdnprobe.Backend.t) =
  {
    b with
    Sdnprobe.Backend.install_traps =
      (fun probes ->
        with_span t "backend.install_traps" (fun () -> b.Sdnprobe.Backend.install_traps probes));
    remove_traps =
      (fun probes ->
        with_span t "backend.remove_traps" (fun () -> b.Sdnprobe.Backend.remove_traps probes));
    attempt =
      (fun ~config ?now_us p ->
        stats.attempts <- stats.attempts + 1;
        with_span t "backend.attempt" (fun () -> b.Sdnprobe.Backend.attempt ~config ?now_us p));
    send_batch =
      Option.map
        (fun send ~config probes ->
          stats.batch_probes <- stats.batch_probes + List.length probes;
          let verdicts = with_span t "backend.send_batch" (fun () -> send ~config probes) in
          Array.iter (fun v -> if v then stats.batch_echoes <- stats.batch_echoes + 1) verdicts;
          verdicts)
        b.Sdnprobe.Backend.send_batch;
  }
