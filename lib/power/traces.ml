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

(* K-way merge of the per-node firing logs: [f nid i] sees every firing of
   [nodes] in (pass, seq) execution order, as a (node, index) pair.  Each
   log is already sorted by (pass, seq) — the simulator appends firings in
   order — so a binary min-heap over the log heads merges [total] firings
   in O(total log k).  (pass, seq) pairs are globally unique, so no
   tie-break is needed. *)
let iter_merged (run : Sim.run) nodes f =
  match nodes with
  | [] -> ()
  | [ nid ] ->
    for i = 0 to Sim.count run nid - 1 do
      f nid i
    done
  | _ ->
    let nids = Array.of_list nodes in
    let pos = Array.make (Array.length nids) 0 in
    let has_next s = pos.(s) < Sim.count run nids.(s) in
    let precedes s t =
      let a = nids.(s) and b = nids.(t) in
      let pa = Sim.pass run a pos.(s) and pb = Sim.pass run b pos.(t) in
      pa < pb || (pa = pb && Sim.seq run a pos.(s) < Sim.seq run b pos.(t))
    in
    (* Min-heap of log indices keyed by the head firing's (pass, seq). *)
    let heap = Array.make (Array.length nids) 0 in
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
      nids;
    while !hsize > 0 do
      let s = heap.(0) in
      f nids.(s) pos.(s);
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
  iter_merged run nodes (fun nid i ->
      let ev = Sim.event run nid i in
      acc :=
        {
          tr_node = nid;
          tr_inputs = ev.Sim.ev_inputs;
          tr_output = ev.Sim.ev_output;
          tr_pass = ev.Sim.ev_pass;
          tr_seq = ev.Sim.ev_seq;
        }
        :: !acc);
  Array.of_list (List.rev !acc)

(* Hamming distance per access over any indexed sequence of raw payloads,
   without materialising it: [get i] is called for 0 <= i < n. *)
let switching_over ~width ~n get =
  if n < 2 || width <= 0 then 0.
  else begin
    let sum = ref 0 in
    let prev = ref (get 0) in
    for i = 1 to n - 1 do
      let v = get i in
      sum := !sum + Bitvec.popcount_bits (!prev lxor v);
      prev := v
    done;
    float_of_int !sum /. float_of_int ((n - 1) * width)
  end

let switching_per_access ~width values =
  switching_over ~width ~n:(Array.length values) (fun i -> Bitvec.bits values.(i))

(* Input and output switching of one shared unit, folded while streaming
   one k-way merge of the member streams (the merged trace is never
   materialised).  The two figures are always wanted together when a unit
   is priced, and the merge dominates the cost, so the combined form halves
   the trace work; each accumulator repeats the exact float operations of
   the separate definitions, keeping the results bit-identical to computing
   them one at a time. *)
type unit_stats = { us_input_sw : float; us_output_sw : float }

let unit_switching_stats run nodes =
  let n = ref 0 and prev_nid = ref 0 and prev_i = ref 0 in
  let in_acc = ref 0. in
  let out_acc = ref 0 and out_bits = ref 0 in
  iter_merged run nodes (fun nid i ->
      if !n > 0 then begin
        (* Per-bit switching of the operand vector, over the ports both
           firings have, where their widths agree. *)
        let pn = !prev_nid and pi = !prev_i in
        let bits = ref 0 and diff = ref 0 in
        for p = 0 to min (Sim.ports run pn) (Sim.ports run nid) - 1 do
          let w = Sim.input_width run pn p in
          if w = Sim.input_width run nid p then begin
            bits := !bits + w;
            diff := !diff + Bitvec.popcount_bits (Sim.input run pn pi p lxor Sim.input run nid i p)
          end
        done;
        in_acc := !in_acc +. if !bits = 0 then 0. else float_of_int !diff /. float_of_int !bits;
        let w = Sim.output_width run pn in
        if w = Sim.output_width run nid then begin
          out_acc := !out_acc + Bitvec.popcount_bits (Sim.output run pn pi lxor Sim.output run nid i);
          out_bits := !out_bits + w
        end
      end;
      prev_nid := nid;
      prev_i := i;
      incr n);
  if !n < 2 then { us_input_sw = 0.; us_output_sw = 0. }
  else
    {
      us_input_sw = !in_acc /. float_of_int (!n - 1);
      us_output_sw =
        (if !out_bits = 0 then 0. else float_of_int !out_acc /. float_of_int !out_bits);
    }

let value_switching run ~key =
  match key with
  | Datapath.K_const _ -> 0.
  | Datapath.K_node nid ->
    switching_over ~width:(Sim.output_width run nid) ~n:(Sim.count run nid) (Sim.output run nid)
  | Datapath.K_input name -> (
    (* The input's first edge, replayed from its consumer's recorded
       operand as [Sim.edge_values] does. *)
    let g = run.Sim.program.Graph.graph in
    let edge = ref None in
    Graph.iter_edges g ~f:(fun e ->
        match e.Ir.source with
        | Ir.Primary_input n when n = name && !edge = None -> edge := Some e.Ir.e_id
        | _ -> ());
    match Option.bind !edge (Array.get run.Sim.edge_consumer) with
    | None -> 0.
    | Some (nid, port) ->
      switching_over ~width:(Sim.input_width run nid port) ~n:(Sim.count run nid) (fun i ->
          Sim.input run nid i port))
