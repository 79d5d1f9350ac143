module Shardtbl = Impact_util.Shardtbl

type t = {
  fc_shared : (string, Stg.portable_frag) Shardtbl.t;
  fc_overlay : (string, Stg.portable_frag) Shardtbl.t option;  (* one shard, probe-private *)
  (* Shared across forks (like the estimator's memo-cost counter): the
     search reports whole-run deltas, not per-overlay views. *)
  fc_reused : int Atomic.t;
  fc_scheduled : int Atomic.t;
}

let create ?context:_ () =
  {
    fc_shared = Shardtbl.create ~equal:String.equal 256;
    fc_overlay = None;
    fc_reused = Atomic.make 0;
    fc_scheduled = Atomic.make 0;
  }

let fork t = { t with fc_overlay = Some (Shardtbl.create ~shards:1 ~equal:String.equal 64) }

let entries t =
  Shardtbl.length t.fc_shared
  + (match t.fc_overlay with None -> 0 | Some o -> Shardtbl.length o)

let counters t = (Atomic.get t.fc_reused, Atomic.get t.fc_scheduled)

(* Keyed by the region key alone: one hash + memcmp over it, on the splice
   hot path, once per region per candidate move. *)
let find t key =
  let hash = Shardtbl.hash key in
  let hit =
    match Option.bind t.fc_overlay (fun o -> Shardtbl.find_opt ~hash o key) with
    | Some _ as h -> h
    | None -> Shardtbl.find_opt ~hash t.fc_shared key
  in
  match hit with
  | None -> None
  | Some pf ->
    Atomic.incr t.fc_reused;
    Some (Stg.frag_of_portable pf)

let add t key frag =
  Atomic.incr t.fc_scheduled;
  let pf = Stg.frag_to_portable frag in
  ignore (Shardtbl.add_if_absent (Option.value t.fc_overlay ~default:t.fc_shared) key pf)

let commit t =
  match t.fc_overlay with
  | None -> ()
  | Some o ->
    Shardtbl.iter (fun key pf -> ignore (Shardtbl.add_if_absent t.fc_shared key pf)) o;
    Shardtbl.clear o
