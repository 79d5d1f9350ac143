module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Sim = Impact_sim.Sim
module Bitvec = Impact_util.Bitvec
module Datapath = Impact_rtl.Datapath

type entry = {
  tr_node : Ir.node_id;
  tr_inputs : Bitvec.t array;
  tr_output : Bitvec.t;
  tr_pass : int;
  tr_seq : int;
}

let entry_of_event nid ev =
  {
    tr_node = nid;
    tr_inputs = ev.Sim.ev_inputs;
    tr_output = ev.Sim.ev_output;
    tr_pass = ev.Sim.ev_pass;
    tr_seq = ev.Sim.ev_seq;
  }

(* K-way merge of the per-node event streams: [f nid ev] sees every event
   of [nodes] in (pass, seq) execution order.  Each stream is already
   sorted by (pass, seq) — the simulator appends events in firing order —
   so a binary min-heap over the stream heads merges [total] events in
   O(total log k).  (pass, seq) pairs are globally unique, so no tie-break
   is needed. *)
let iter_merged (run : Sim.run) nodes f =
  match nodes with
  | [] -> ()
  | [ nid ] -> Array.iter (f nid) (Sim.node_events run nid)
  | _ ->
    let nids = Array.of_list nodes in
    let streams = Array.map (Sim.node_events run) nids in
    let pos = Array.make (Array.length streams) 0 in
    let has_next s = pos.(s) < Array.length streams.(s) in
    let precedes s t =
      let a = streams.(s).(pos.(s)) and b = streams.(t).(pos.(t)) in
      a.Sim.ev_pass < b.Sim.ev_pass
      || (a.Sim.ev_pass = b.Sim.ev_pass && a.Sim.ev_seq < b.Sim.ev_seq)
    in
    (* Min-heap of stream indices keyed by the head event's (pass, seq). *)
    let heap = Array.make (Array.length streams) 0 in
    let hsize = ref 0 in
    let swap i j =
      let t = heap.(i) in
      heap.(i) <- heap.(j);
      heap.(j) <- t
    in
    let rec sift_up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if precedes heap.(i) heap.(parent) then begin
          swap i parent;
          sift_up parent
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < !hsize && precedes heap.(l) heap.(!smallest) then smallest := l;
      if r < !hsize && precedes heap.(r) heap.(!smallest) then smallest := r;
      if !smallest <> i then begin
        swap i !smallest;
        sift_down !smallest
      end
    in
    Array.iteri
      (fun s _ ->
        if has_next s then begin
          heap.(!hsize) <- s;
          incr hsize;
          sift_up (!hsize - 1)
        end)
      streams;
    while !hsize > 0 do
      let s = heap.(0) in
      f nids.(s) streams.(s).(pos.(s));
      pos.(s) <- pos.(s) + 1;
      if has_next s then sift_down 0
      else begin
        decr hsize;
        heap.(0) <- heap.(!hsize);
        if !hsize > 0 then sift_down 0
      end
    done

let unit_trace run nodes =
  let acc = ref [] in
  iter_merged run nodes (fun nid ev -> acc := entry_of_event nid ev :: !acc);
  Array.of_list (List.rev !acc)

(* Hamming distance per access over any indexed value sequence, without
   materialising it: [get i] is called for 0 <= i < n. *)
let switching_over ~width ~n get =
  if n < 2 || width <= 0 then 0.
  else begin
    let sum = ref 0 in
    let prev = ref (get 0) in
    for i = 1 to n - 1 do
      let v = get i in
      sum := !sum + Bitvec.hamming !prev v;
      prev := v
    done;
    float_of_int !sum /. float_of_int ((n - 1) * width)
  end

let switching_per_access ~width values =
  switching_over ~width ~n:(Array.length values) (Array.get values)

let pairwise_input_switching a b =
  let ports = min (Array.length a) (Array.length b) in
  let bits = ref 0 and diff = ref 0 in
  for p = 0 to ports - 1 do
    let va = a.(p) and vb = b.(p) in
    if Bitvec.width va = Bitvec.width vb then begin
      bits := !bits + Bitvec.width va;
      diff := !diff + Bitvec.hamming va vb
    end
  done;
  if !bits = 0 then 0. else float_of_int !diff /. float_of_int !bits

(* Input and output switching of one shared unit, folded while streaming
   one k-way merge of the member streams (the merged trace is never
   materialised).  The two figures are always wanted together when a unit
   is priced, and the merge dominates the cost, so the combined form halves
   the trace work; each accumulator repeats the exact float operations of
   the separate definitions, keeping the results bit-identical to computing
   them one at a time. *)
type unit_stats = { us_input_sw : float; us_output_sw : float }

let unit_switching_stats run nodes =
  let n = ref 0 and prev = ref None in
  let in_acc = ref 0. in
  let out_acc = ref 0 and out_bits = ref 0 in
  iter_merged run nodes (fun _ (cur : Sim.event) ->
      (match !prev with
      | Some (prev : Sim.event) ->
        in_acc :=
          !in_acc +. pairwise_input_switching prev.Sim.ev_inputs cur.Sim.ev_inputs;
        let a = prev.Sim.ev_output and b = cur.Sim.ev_output in
        if Bitvec.width a = Bitvec.width b then begin
          out_acc := !out_acc + Bitvec.hamming a b;
          out_bits := !out_bits + Bitvec.width a
        end
      | None -> ());
      prev := Some cur;
      incr n);
  if !n < 2 then { us_input_sw = 0.; us_output_sw = 0. }
  else
    {
      us_input_sw = !in_acc /. float_of_int (!n - 1);
      us_output_sw =
        (if !out_bits = 0 then 0. else float_of_int !out_acc /. float_of_int !out_bits);
    }

let unit_input_switching run nodes = (unit_switching_stats run nodes).us_input_sw
let unit_output_switching run nodes = (unit_switching_stats run nodes).us_output_sw

let value_switching run ~key =
  match key with
  | Datapath.K_const _ -> 0.
  | Datapath.K_node nid ->
    let events = Sim.node_events run nid in
    let width =
      (Graph.node run.Sim.program.Graph.graph nid).Ir.n_width
    in
    switching_over ~width ~n:(Array.length events) (fun i ->
        events.(i).Sim.ev_output)
  | Datapath.K_input name ->
    (* Find the input's edge and use its consumer-recorded values. *)
    let g = run.Sim.program.Graph.graph in
    let edge =
      let found = ref None in
      Graph.iter_edges g ~f:(fun e ->
          match e.Ir.source with
          | Ir.Primary_input n when n = name && !found = None -> found := Some e
          | _ -> ());
      !found
    in
    (match edge with
    | None -> 0.
    | Some e ->
      let values = Sim.edge_values run e.Ir.e_id in
      switching_per_access ~width:e.Ir.e_width values)
