module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Sim = Impact_sim.Sim
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath

type leaf_stats = { a : float array; p : float array }

(* Raw access counts per leaf over the whole workload. *)
let leaf_counts run dp idx =
  let net = Datapath.network dp idx in
  let b = Datapath.binding dp in
  let g = Binding.graph b in
  let counts = Array.make (Array.length net.Datapath.net_keys) 0. in
  let bump key n =
    match Datapath.leaf_of_key net key with
    | Some leaf -> counts.(leaf) <- counts.(leaf) +. float_of_int n
    | None -> ()
  in
  (match net.Datapath.net_port with
  | Datapath.P_fu_input (fu, port) ->
    List.iter
      (fun nid ->
        let n = Graph.node g nid in
        if port < Array.length n.Ir.inputs then
          bump (Datapath.operand_key b nid ~port) (Sim.count run nid))
      (Binding.fu_ops b fu)
  | Datapath.P_reg_write reg ->
    List.iter
      (fun nid ->
        let n = Graph.node g nid in
        match n.Ir.kind with
        | Ir.Op_loop_merge ->
          (match Datapath.write_keys b nid with
          | [ k_init; k_back ] ->
            bump k_init (Sim.tag_count run nid Sim.Tag_merge_init);
            bump k_back (Sim.tag_count run nid Sim.Tag_merge_back)
          | _ -> ())
        | _ ->
          List.iter (fun k -> bump k (Sim.count run nid)) (Datapath.write_keys b nid))
      (Binding.reg_values b reg);
    List.iter
      (fun name -> bump (Datapath.K_input name) run.Sim.passes)
      (Binding.reg_input_names b reg));
  counts

let network_stats ?value_sw run dp idx =
  let net = Datapath.network dp idx in
  let counts = leaf_counts run dp idx in
  let total = Array.fold_left ( +. ) 0. counts in
  let n = Array.length counts in
  let p =
    if total <= 0. then Array.make n (1. /. float_of_int n)
    else Array.map (fun c -> c /. total) counts
  in
  let switching =
    match value_sw with
    | Some f -> f
    | None -> fun key -> Traces.value_switching run ~key
  in
  let a = Array.map switching net.Datapath.net_keys in
  { a; p }

(* --- Signal statistics ([19]) --------------------------------------------- *)

module Stats = Impact_util.Stats
module Bitvec = Impact_util.Bitvec

type signal_report = {
  sr_accesses : int;
  sr_mean_switching : float;
  sr_std_switching : float;
  sr_temporal_correlation : float;
}

(* Per-bit switching between firings [i - 1] and [i] of a node's output. *)
let output_switching run nid i =
  float_of_int (Bitvec.popcount_bits (Sim.output run nid (i - 1) lxor Sim.output run nid i))
  /. float_of_int (Sim.output_width run nid)

let switching_series run nid =
  Array.init (max 0 (Sim.count run nid - 1)) (fun i -> output_switching run nid (i + 1))

let signal_report run nid =
  let series = switching_series run nid in
  let acc = Stats.of_array series in
  {
    sr_accesses = Sim.count run nid;
    sr_mean_switching = Stats.mean acc;
    sr_std_switching = Stats.stddev acc;
    sr_temporal_correlation = Stats.autocorrelation series;
  }

(* Mean per-bit switching attributed to each pass; the transition from the
   previous pass's last value belongs to the later pass, so a unit firing
   once per pass still has a meaningful series. *)
let per_pass_switching run nid =
  let sums = Array.make (max run.Sim.passes 1) 0. in
  let counts = Array.make (max run.Sim.passes 1) 0 in
  for i = 1 to Sim.count run nid - 1 do
    let pass = Sim.pass run nid i in
    sums.(pass) <- sums.(pass) +. output_switching run nid i;
    counts.(pass) <- counts.(pass) + 1
  done;
  Array.mapi
    (fun i total -> if counts.(i) = 0 then 0. else total /. float_of_int counts.(i))
    sums

let spatial_correlation run a b =
  Stats.pearson (per_pass_switching run a) (per_pass_switching run b)
