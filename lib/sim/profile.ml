module Ir = Impact_cdfg.Ir
module Stats = Impact_util.Stats

type t = {
  cond_counts : (Ir.edge_id, int * int) Hashtbl.t;  (* true, false *)
  loop_iters : (Ir.loop_id, Stats.t) Hashtbl.t;
}

let create () = { cond_counts = Hashtbl.create 16; loop_iters = Hashtbl.create 8 }

let record_conds t edge ~trues ~falses =
  let tc, fc = Option.value (Hashtbl.find_opt t.cond_counts edge) ~default:(0, 0) in
  Hashtbl.replace t.cond_counts edge (tc + trues, fc + falses)

let record_loop_exit t loop ~iterations =
  let stats =
    match Hashtbl.find_opt t.loop_iters loop with
    | Some s -> s
    | None ->
      let s = Stats.create () in
      Hashtbl.add t.loop_iters loop s;
      s
  in
  Stats.add stats (float_of_int iterations)

let cond_evaluations t edge =
  match Hashtbl.find_opt t.cond_counts edge with
  | Some (tc, fc) -> tc + fc
  | None -> 0

let prob_true t edge =
  match Hashtbl.find_opt t.cond_counts edge with
  | Some (tc, fc) when tc + fc > 0 -> float_of_int tc /. float_of_int (tc + fc)
  | Some _ | None -> 0.5

let mean_iterations t loop =
  match Hashtbl.find_opt t.loop_iters loop with
  | Some s -> Stats.mean s
  | None -> 0.

let loop_exits t loop =
  match Hashtbl.find_opt t.loop_iters loop with
  | Some s -> Stats.count s
  | None -> 0
