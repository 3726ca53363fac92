(* A job is a bag of [units] independent work units. Units are claimed
   dynamically ([next] is an atomic cursor, so a slow unit never stalls
   the others behind a static partition), but each unit writes only its
   own slot of the caller's result buffer, which is what makes the join
   order — and hence the output — independent of the schedule. *)
type job = {
  units : int;
  run_unit : int -> unit;
  next : int Atomic.t;
  completed : int Atomic.t;
  gen : int; (* generation stamp: workers run each job exactly once *)
  jm : Mutex.t; (* guards first_error *)
  mutable first_error : (int * exn * Printexc.raw_backtrace) option;
}

type t = {
  size : int;
  m : Mutex.t;
  cv : Condition.t; (* new job posted, or shutdown *)
  done_cv : Condition.t; (* some job finished its last unit *)
  mutable pending : job option;
  mutable generation : int;
  mutable live : bool;
  busy : bool Atomic.t; (* reentrancy guard: combinators run one at a time *)
  mutable workers : unit Domain.t array;
}

let domains t = t.size

let record_error job i exn bt =
  Mutex.lock job.jm;
  (match job.first_error with
  | Some (j, _, _) when j <= i -> ()
  | _ -> job.first_error <- Some (i, exn, bt));
  Mutex.unlock job.jm

(* Claim and run units until the cursor runs off the end. Every claimed
   unit bumps [completed] exactly once (even on exceptions), so the
   caller's completion wait cannot hang; the last completer signals. *)
let help pool job =
  let n = job.units in
  let rec claim () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < n then begin
      (try job.run_unit i
       with exn -> record_error job i exn (Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add job.completed 1 = n - 1 then begin
        Mutex.lock pool.m;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.m
      end;
      claim ()
    end
  in
  claim ()

let worker pool () =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.m;
    let rec wait () =
      if not pool.live then ()
      else
        match pool.pending with
        | Some job when job.gen > !last_gen -> ()
        | _ ->
            Condition.wait pool.cv pool.m;
            wait ()
    in
    wait ();
    if not pool.live then begin
      Mutex.unlock pool.m;
      running := false
    end
    else begin
      let job = Option.get pool.pending in
      last_gen := job.gen;
      Mutex.unlock pool.m;
      help pool job
    end
  done

let create ~domains =
  if domains < 1 || domains > 128 then
    invalid_arg "Pool.create: domains outside [1, 128]";
  let t =
    {
      size = domains;
      m = Mutex.create ();
      cv = Condition.create ();
      done_cv = Condition.create ();
      pending = None;
      generation = 0;
      live = true;
      busy = Atomic.make false;
      workers = [||];
    }
  in
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  if was_live then Array.iter Domain.join t.workers;
  t.workers <- [||]

(* Run [units] work units through the pool, caller participating. Falls
   back to inline execution when the pool is size 1, already running a
   job (reentrant call from a task), or shut down. *)
let run_units t ~units ~run_unit ~inline =
  if units = 0 then ()
  else if
    t.size = 1 || (not t.live)
    || not (Atomic.compare_and_set t.busy false true)
  then inline ()
  else begin
    let job =
      {
        units;
        run_unit;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        gen = t.generation + 1;
        jm = Mutex.create ();
        first_error = None;
      }
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.m;
        t.pending <- None;
        Mutex.unlock t.m;
        Atomic.set t.busy false)
      (fun () ->
        Mutex.lock t.m;
        t.generation <- job.gen;
        t.pending <- Some job;
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        help t job;
        Mutex.lock t.m;
        while Atomic.get job.completed < job.units do
          Condition.wait t.done_cv t.m
        done;
        Mutex.unlock t.m;
        match job.first_error with
        | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
        | None -> ())
  end

let map t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_units t ~units:n
      ~run_unit:(fun i -> out.(i) <- Some (f a.(i)))
      ~inline:(fun () -> Array.iteri (fun i x -> out.(i) <- Some (f x)) a);
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_list t f l = Array.to_list (map t f (Array.of_list l))
