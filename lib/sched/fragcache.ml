module Shardtbl = Impact_util.Shardtbl

type t = {
  fc_table : (string, Stg.portable_frag) Shardtbl.t;
  fc_reused : int Atomic.t;
  fc_scheduled : int Atomic.t;
}

let create ?context:_ () =
  {
    fc_table = Shardtbl.create ~equal:String.equal 256;
    fc_reused = Atomic.make 0;
    fc_scheduled = Atomic.make 0;
  }

let entries t = Shardtbl.length t.fc_table
let counters t = (Atomic.get t.fc_reused, Atomic.get t.fc_scheduled)

(* Keyed by the region key alone: one hash + memcmp over it, on the splice
   hot path, once per region per candidate move. *)
let find t key =
  match Shardtbl.find_opt t.fc_table key with
  | None -> None
  | Some pf ->
    Atomic.incr t.fc_reused;
    Some (Stg.frag_of_portable pf)

let add t key frag =
  Atomic.incr t.fc_scheduled;
  ignore (Shardtbl.add_if_absent t.fc_table key (Stg.frag_to_portable frag))
