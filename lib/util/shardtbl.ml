(* Each shard chains entries in the standard library's layout (head
   insertion, doubling past two entries per bucket).  Entries keep their
   hash: keys are compared only on a hash match. *)
type ('a, 'b) bucket = Empty | Cons of { key : 'a; hash : int; data : 'b; next : ('a, 'b) bucket }

type ('a, 'b) shard = { lock : Mutex.t; mutable buckets : ('a, 'b) bucket array; mutable size : int }
type ('a, 'b) t = { shards : ('a, 'b) shard array; equal : 'a -> 'a -> bool }

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let n_shards = 16

let create ~equal size_hint =
  let initial = pow2 (max 8 (size_hint / n_shards)) 16 in
  let shard _ = { lock = Mutex.create (); buckets = Array.make initial Empty; size = 0 } in
  { shards = Array.init n_shards shard; equal }

let hash = Hashtbl.hash

(* The low bits of the hash pick the shard, the bits above them the bucket. *)
let shard_of t h = t.shards.(h land (Array.length t.shards - 1))
let index t h buckets = (h / Array.length t.shards) land (Array.length buckets - 1)

let rec find_in equal key h = function
  | Empty -> None
  | Cons c -> if c.hash = h && equal c.key key then Some c.data else find_in equal key h c.next

let find_opt ?hash:h t key =
  let h = match h with Some h -> h | None -> hash key in
  let s = shard_of t h in
  Mutex.protect s.lock (fun () -> find_in t.equal key h s.buckets.(index t h s.buckets))

(* Old buckets back to front, each chain tail first, prepending. *)
let resize t s =
  let buckets = Array.make (2 * Array.length s.buckets) Empty in
  let rec move = function
    | Empty -> ()
    | Cons c ->
      move c.next;
      let i = index t c.hash buckets in
      buckets.(i) <- Cons { c with next = buckets.(i) }
  in
  for i = Array.length s.buckets - 1 downto 0 do
    move s.buckets.(i)
  done;
  s.buckets <- buckets

let add_if_absent ?hash:h t key v =
  let h = match h with Some h -> h | None -> hash key in
  let s = shard_of t h in
  Mutex.protect s.lock (fun () ->
      let i = index t h s.buckets in
      match find_in t.equal key h s.buckets.(i) with
      | Some w -> w
      | None ->
        s.buckets.(i) <- Cons { key; hash = h; data = v; next = s.buckets.(i) };
        s.size <- s.size + 1;
        if s.size > 2 * Array.length s.buckets then resize t s;
        v)

let length t = Array.fold_left (fun n s -> n + Mutex.protect s.lock (fun () -> s.size)) 0 t.shards

let iter f t =
  let rec chain acc = function Empty -> acc | Cons c -> chain ((c.key, c.data) :: acc) c.next in
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () -> Array.fold_left chain [] s.buckets)
      |> List.rev
      |> List.iter (fun (k, v) -> f k v))
    t.shards
