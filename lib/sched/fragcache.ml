module Shardtbl = Impact_util.Shardtbl

type backing = {
  bk_find : string -> string option;
  bk_put : string -> cost_ns:int -> string -> unit;
}

(* One cached fragment.  [e_from_store] marks entries that came *from* the
   backing so they are never written back. *)
type entry = { e_frag : Stg.portable_frag; e_cost_ns : int; e_from_store : bool }

type t = {
  fc_context : string;
  fc_shared : (string, entry) Shardtbl.t;
  fc_overlay : (string, entry) Shardtbl.t option;  (* one shard, probe-private *)
  fc_backing : backing option;
  (* Shared across forks (like the estimator's memo-cost counter): the
     search reports whole-run deltas, not per-overlay views. *)
  fc_reused : int Atomic.t;
  fc_scheduled : int Atomic.t;
}

let create ?(context = "") ?backing () =
  {
    fc_context = context;
    fc_shared = Shardtbl.create ~equal:String.equal 256;
    fc_overlay = None;
    fc_backing = backing;
    fc_reused = Atomic.make 0;
    fc_scheduled = Atomic.make 0;
  }

let context t = t.fc_context

let fork t = { t with fc_overlay = Some (Shardtbl.create ~shards:1 ~equal:String.equal 64) }

let entries t =
  Shardtbl.length t.fc_shared
  + (match t.fc_overlay with None -> 0 | Some o -> Shardtbl.length o)

let counters t = (Atomic.get t.fc_reused, Atomic.get t.fc_scheduled)

let encode e = Marshal.to_string ("frag", e.e_frag, e.e_cost_ns) []

let decode payload : entry option =
  match (Marshal.from_string payload 0 : string * Stg.portable_frag * int) with
  | "frag", pf, cost_ns ->
    if Stg.portable_frag_wf pf then
      Some { e_frag = pf; e_cost_ns = cost_ns; e_from_store = true }
    else None
  | _ -> None
  | exception _ -> None

(* One cache serves one context, so the in-memory tables are keyed by the
   region key alone: one hash + memcmp over it is far cheaper than
   the cryptographic digest the persistent tier uses for content
   addressing, and this lookup sits on the splice hot path, once per region
   per candidate move.  The context is prepended only at the backing
   boundary, where the backing layer (Driver) hashes, on misses. *)
let full_key t key = t.fc_context ^ "\x00" ^ key

(* File [e] in the shared table and persist it — only when it won the
   insert: a key another probe (or the backing) already filed is on disk or
   on its way there, and a second write would only cost a store put. *)
let publish t key e =
  if Shardtbl.add_if_absent t.fc_shared key e == e then
    match t.fc_backing with
    | Some bk when not e.e_from_store -> (
      try bk.bk_put (full_key t key) ~cost_ns:e.e_cost_ns (encode e) with _ -> ())
    | Some _ | None -> ()

let find t key =
  let hash = Shardtbl.hash key in
  let mem_hit =
    match Option.bind t.fc_overlay (fun o -> Shardtbl.find_opt ~hash o key) with
    | Some _ as h -> h
    | None -> Shardtbl.find_opt ~hash t.fc_shared key
  in
  let hit =
    match (mem_hit, t.fc_backing) with
    | (Some _ as h), _ | h, None -> h
    | None, Some bk -> (
      match Option.bind (try bk.bk_find (full_key t key) with _ -> None) decode with
      | None -> None
      | Some e -> (
        (* Promote the disk hit into the memory layer.  From a fork it lands
           in the overlay only (the contract: probes publish nothing shared
           before their merge point), otherwise straight into the shared
           table. *)
        Some (Shardtbl.add_if_absent ~hash (Option.value t.fc_overlay ~default:t.fc_shared) key e)))
  in
  match hit with
  | None -> None
  | Some e ->
    Atomic.incr t.fc_reused;
    Some (Stg.frag_of_portable e.e_frag)

let add t key ~cost_ns frag =
  Atomic.incr t.fc_scheduled;
  let e =
    { e_frag = Stg.frag_to_portable frag; e_cost_ns = max 0 cost_ns; e_from_store = false }
  in
  match t.fc_overlay with
  | Some o -> ignore (Shardtbl.add_if_absent o key e)
  | None -> publish t key e

let commit t =
  match t.fc_overlay with
  | None -> ()
  | Some o ->
    Shardtbl.iter (publish t) o;
    Shardtbl.clear o
