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

let detected_domains () = max 1 (Domain.recommended_domain_count ())

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
  let n_jobs = max 1 (match jobs with Some n -> n | None -> detected_domains ()) in
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

let with_jobs n f =
  let jobs = if n = 0 then detected_domains () else max 1 n in
  if jobs = 1 then f None else with_pool ~jobs (fun pool -> f (Some pool))
