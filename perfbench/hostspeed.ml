(* Host-speed probe.  The benchmark runs on a shared host whose other
   tenants slow it down: one paulin sweep on identical inputs takes from
   2.5 to 4.1 s within a minute, while process CPU time equals wall time
   and steal time stays near 0 (NOTES.md).  A sampler thread times a fixed
   kernel every [period] seconds, about 1 % of one core.  A request's
   time, times [nominal] over the median kernel time while it ran, is its
   time at a fixed reference speed: the speed at which the kernel takes
   [nominal] seconds.  run.sh pins the process to one CPU, so the sampler
   measures the core the request runs on. *)

let period = 0.05

(* The kernel's time on a quiet 2-vCPU host of the kind NOTES.md names;
   it sets the scale of every reference-speed figure. *)
let nominal = 5e-4

(* Two walks of about 0.25 ms each on a quiet host; neither allocates, so
   the program's heap cannot change their cost.  The slowdowns come from
   two places the probe must both see (NOTES.md): independent
   read-modify-writes at pseudo-random places of a 4 MiB table follow the
   load on the shared memory system; a dependent walk round a random cycle
   through a 256 KiB table follows the core's own caches.  Either alone
   left twice the spread of both together. *)
let next x = ((x * 1103515245) + 12345) land 0x3fffffff
let table = Array.make (1 lsl 19) 0

(* A random cyclic permutation: [cycle.(i)] is the slot after [i]. *)
let cycle =
  let n = 1 lsl 15 in
  let order = Array.init n Fun.id and x = ref 9 in
  for i = n - 1 downto 1 do
    x := next !x;
    let j = !x mod i in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let c = Array.make n 0 in
  Array.iteri (fun i slot -> c.(slot) <- order.((i + 1) mod n)) order;
  c

let state = ref 12345

let kernel () =
  let mask = Array.length table - 1 in
  let x = ref !state and acc = ref 0 in
  for _ = 1 to 16_000 do
    x := next !x;
    let i = (!x lsr 7) land mask in
    let v = Array.unsafe_get table i in
    Array.unsafe_set table i (v + !x);
    if v land 1 = 0 then acc := !acc + (v lsr 3) else acc := !acc lxor v
  done;
  state := !x;
  let p = ref (!x land (Array.length cycle - 1)) in
  for _ = 1 to 20_000 do
    p := Array.unsafe_get cycle !p;
    if !p land 3 = 1 then acc := !acc + !p else acc := !acc lxor !p
  done;
  !acc

let lock = Mutex.create ()
let samples = ref [] (* (midpoint, seconds), newest first *)
let running = ref false

(* Starts the sampler and waits until it has a few samples, so that the
   first set-up already has some around it. *)
let start () =
  running := true;
  ignore
    (Thread.create
       (fun () ->
         while !running do
           Thread.delay period;
           let t0 = Trace.now () in
           ignore (Sys.opaque_identity (kernel ()));
           let t1 = Trace.now () in
           Mutex.protect lock (fun () -> samples := ((t0 +. t1) /. 2., t1 -. t0) :: !samples)
         done)
       ());
  Thread.delay (12. *. period)

let stop () = running := false

(* Fewest samples a probe time rests on. *)
let min_samples = 9

let probe_time ~start ~stop =
  Stats.window_median ~k:min_samples ~start ~stop (Mutex.protect lock (fun () -> !samples))

(* [seconds] measured over [start, stop], at the reference speed. *)
let scale ~start ~stop seconds = seconds *. nominal /. probe_time ~start ~stop

(* Median kernel time over the whole run, for the summary. *)
let median_probe () = Stats.median (List.map snd (Mutex.protect lock (fun () -> !samples)))
