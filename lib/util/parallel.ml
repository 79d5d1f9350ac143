(* A fixed-size Domain worker pool with a shared closure queue.  [map]
   batches its work items behind an atomic cursor so the queue only ever
   carries one "drain" closure per worker, and the calling domain drains
   alongside the workers. *)

type job = Task of (unit -> unit) | Quit

type pool = {
  n_jobs : int;
  queue : job Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

let now_s () = Unix.gettimeofday ()

let env_jobs () =
  match Sys.getenv_opt "IMPACT_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let detected_domains () = max 1 (Domain.recommended_domain_count ())

(* Log the override once per distinct value: a benchmark that reports
   "detected N" while an env var silently forced M is unreproducible. *)
let logged_override = Atomic.make (-1)

let num_domains () =
  match env_jobs () with
  | Some n ->
    let detected = detected_domains () in
    if n <> detected && Atomic.exchange logged_override n <> n then
      Printf.eprintf "[parallel] IMPACT_JOBS=%d overrides detected parallelism %d\n%!" n
        detected;
    n
  | None -> detected_domains ()

let rec worker_loop pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue do
    Condition.wait pool.nonempty pool.lock
  done;
  let job = Queue.pop pool.queue in
  Mutex.unlock pool.lock;
  match job with
  | Quit -> ()
  | Task f ->
    f ();
    worker_loop pool

let create ?jobs () =
  let n_jobs = max 1 (match jobs with Some n -> n | None -> num_domains ()) in
  let pool =
    {
      n_jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
      closed = false;
    }
  in
  pool.workers <-
    List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs pool = pool.n_jobs

let submit pool task =
  Mutex.lock pool.lock;
  Queue.push (Task task) pool.queue;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.lock

let map pool f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  if n = 0 then []
  else if n = 1 || pool.n_jobs <= 1 || pool.closed || pool.workers = [] then
    List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let run_one i =
      (results.(i) <-
         Some (match f input.(i) with v -> Ok v | exception e -> Error e));
      if Atomic.fetch_and_add completed 1 = n - 1 then begin
        Mutex.lock done_lock;
        Condition.broadcast all_done;
        Mutex.unlock done_lock
      end
    in
    let drain () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run_one i;
          go ()
        end
      in
      go ()
    in
    let helpers = min (List.length pool.workers) (n - 1) in
    for _ = 1 to helpers do
      submit pool drain
    done;
    drain ();
    Mutex.lock done_lock;
    while Atomic.get completed < n do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    (* All slots are filled; re-raise the smallest-index failure so error
       reporting is deterministic regardless of execution order. *)
    Array.iter
      (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
      results;
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
         results)
  end

(* --- Work-stealing chunked map --------------------------------------------- *)

(* One deque per participant; chunks are dealt round-robin up front.  The
   owner pops from the front, thieves take from the back, both under the
   deque's mutex (chunks are coarse enough that the lock is cold). *)
type deque = {
  d_lock : Mutex.t;
  d_chunks : int array;
  mutable d_lo : int;
  mutable d_hi : int;
}

let map_stealing pool ?(chunk = 1) f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  if n = 0 then ([], 0)
  else begin
    let chunk = max 1 chunk in
    let n_chunks = (n + chunk - 1) / chunk in
    let parts =
      if pool.closed || pool.workers = [] then 1
      else min pool.n_jobs (max 1 n_chunks)
    in
    if parts <= 1 then (List.map f xs, 0)
    else begin
      let results = Array.make n None in
      let steals = Atomic.make 0 in
      let completed = Atomic.make 0 in
      let done_lock = Mutex.create () in
      let all_done = Condition.create () in
      let deques =
        Array.init parts (fun p ->
            let mine = ref [] in
            let c = ref p in
            while !c < n_chunks do
              mine := !c :: !mine;
              c := !c + parts
            done;
            let arr = Array.of_list (List.rev !mine) in
            { d_lock = Mutex.create (); d_chunks = arr; d_lo = 0; d_hi = Array.length arr })
      in
      let take_own p =
        let d = deques.(p) in
        Mutex.lock d.d_lock;
        let r =
          if d.d_lo < d.d_hi then begin
            let c = d.d_chunks.(d.d_lo) in
            d.d_lo <- d.d_lo + 1;
            Some c
          end
          else None
        in
        Mutex.unlock d.d_lock;
        r
      in
      let steal victim =
        let d = deques.(victim) in
        Mutex.lock d.d_lock;
        let r =
          if d.d_lo < d.d_hi then begin
            d.d_hi <- d.d_hi - 1;
            Some d.d_chunks.(d.d_hi)
          end
          else None
        in
        Mutex.unlock d.d_lock;
        r
      in
      let run_chunk c =
        let lo = c * chunk in
        let hi = min n ((c + 1) * chunk) in
        for i = lo to hi - 1 do
          results.(i) <-
            Some (match f input.(i) with v -> Ok v | exception e -> Error e)
        done;
        let k = hi - lo in
        if Atomic.fetch_and_add completed k = n - k then begin
          Mutex.lock done_lock;
          Condition.broadcast all_done;
          Mutex.unlock done_lock
        end
      in
      let participant p =
        let rec own () =
          match take_own p with
          | Some c ->
            run_chunk c;
            own ()
          | None -> rob 1
        and rob k =
          if k < parts then
            match steal ((p + k) mod parts) with
            | Some c ->
              Atomic.incr steals;
              run_chunk c;
              rob 1
            | None -> rob (k + 1)
        in
        own ()
      in
      for p = 1 to parts - 1 do
        submit pool (fun () -> participant p)
      done;
      participant 0;
      Mutex.lock done_lock;
      while Atomic.get completed < n do
        Condition.wait all_done done_lock
      done;
      Mutex.unlock done_lock;
      Array.iter
        (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
        results;
      let out =
        Array.to_list
          (Array.map
             (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
             results)
      in
      (out, Atomic.get steals)
    end
  end

let physical_parallelism pool = min pool.n_jobs (detected_domains ())

let shutdown pool =
  let workers =
    Mutex.lock pool.lock;
    let ws = pool.workers in
    if not pool.closed then begin
      pool.closed <- true;
      List.iter (fun _ -> Queue.push Quit pool.queue) ws;
      Condition.broadcast pool.nonempty
    end;
    pool.workers <- [];
    Mutex.unlock pool.lock;
    ws
  in
  List.iter Domain.join workers

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
