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

(* The kernels below read [Sim.run.logs] directly: a firing is a row of
   [stride] ints in its log's chunks, the output at column 0, input port
   [p] at column [p + 1], then pass, seq and tag.  Every index is bounds
   checked. *)

(* Rows in chunk [c] of a log of [n] firings: only the last is short. *)
let chunk_rows n c = min Sim.chunk_events (n - (c * Sim.chunk_events))

(* K-way merge of the per-node firing logs: [f s chunk row] sees every
   firing of [nids.(s)], at [row] of [chunk], in (pass, seq) execution
   order.  Each log is already sorted by (pass, seq) — the simulator
   appends firings in order — so a binary min-heap over the log heads,
   comparing pass and then seq straight from the chunks, merges [total]
   firings in O(total log k).  (pass, seq) pairs are globally unique, so
   no tie-break is needed. *)
let iter_merged (run : Sim.run) nids f =
  let k = Array.length nids in
  let logs = Array.map (fun nid -> run.Sim.logs.(nid)) nids in
  let pos = Array.make k 0 and off = Array.make k 0 in
  let cur =
    Array.map (fun (l : Sim.log) -> if l.Sim.count > 0 then l.Sim.chunks.(0) else [||]) logs
  in
  let pass_col = Array.map (fun (l : Sim.log) -> l.Sim.stride - 3) logs in
  let has_next s = pos.(s) < logs.(s).Sim.count in
  let precedes s t =
    let a = cur.(s) and ia = off.(s) + pass_col.(s) in
    let b = cur.(t) and ib = off.(t) + pass_col.(t) in
    let pa = a.(ia) and pb = b.(ib) in
    pa < pb || (pa = pb && a.(ia + 1) < b.(ib + 1))
  in
  (* Min-heap of log indices keyed by the head firing's (pass, seq). *)
  let heap = Array.make k 0 in
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
  for s = 0 to k - 1 do
    if has_next s then begin
      heap.(!hsize) <- s;
      incr hsize;
      sift_up (!hsize - 1)
    end
  done;
  while !hsize > 0 do
    let s = heap.(0) in
    f s cur.(s) off.(s);
    (* Step the log's head to its next row, in the next chunk past the
       end of this one. *)
    let l = logs.(s) in
    pos.(s) <- pos.(s) + 1;
    off.(s) <- off.(s) + l.Sim.stride;
    if off.(s) = Array.length cur.(s) && has_next s then begin
      cur.(s) <- l.Sim.chunks.(pos.(s) / Sim.chunk_events);
      off.(s) <- 0
    end;
    if has_next s then sift_down 0
    else begin
      decr hsize;
      heap.(0) <- heap.(!hsize);
      if !hsize > 0 then sift_down 0
    end
  done

let unit_trace run nodes =
  let nids = Array.of_list nodes in
  let next = Array.make (Array.length nids) 0 in
  let acc = ref [] in
  iter_merged run nids (fun s _ _ ->
      let nid = nids.(s) and i = next.(s) in
      next.(s) <- i + 1;
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

let switching_per_access ~width values =
  let n = Array.length values in
  if n < 2 || width <= 0 then 0.
  else begin
    let sum = ref 0 in
    for i = 1 to n - 1 do
      sum := !sum + Bitvec.popcount_bits (Bitvec.bits values.(i - 1) lxor Bitvec.bits values.(i))
    done;
    float_of_int !sum /. float_of_int ((n - 1) * width)
  end

(* Switching per access of one column of a node's rows: one scan, no
   merge.  The first row is compared with itself, which adds nothing. *)
let column_switching (l : Sim.log) ~width col =
  let n = l.Sim.count and stride = l.Sim.stride in
  if n < 2 || width <= 0 then 0.
  else begin
    let sum = ref 0 and prev = ref l.Sim.chunks.(0).(col) in
    for c = 0 to Array.length l.Sim.chunks - 1 do
      let chunk = l.Sim.chunks.(c) in
      for j = 0 to chunk_rows n c - 1 do
        let v = chunk.((j * stride) + col) in
        sum := !sum + Bitvec.popcount_bits (!prev lxor v);
        prev := v
      done
    done;
    float_of_int !sum /. float_of_int ((n - 1) * width)
  end

(* Input and output switching of one shared unit, folded over its merged
   trace without materialising it.  The two figures are always wanted
   together when a unit is priced, so one pass serves both; each
   accumulator repeats the exact float operations of the separate
   definitions, keeping the results bit-identical to computing them one at
   a time over [unit_trace].  Per consecutive pair of firings, input
   switching is per bit over the ports both have where their widths
   agree, and output switching counts where the output widths agree. *)
type unit_stats = { us_input_sw : float; us_output_sw : float }

let no_switching = { us_input_sw = 0.; us_output_sw = 0. }

let stats ~n ~in_acc ~out_acc ~out_bits =
  if n < 2 then no_switching
  else
    {
      us_input_sw = in_acc /. float_of_int (n - 1);
      us_output_sw = (if out_bits = 0 then 0. else float_of_int out_acc /. float_of_int out_bits);
    }

(* A one-node unit: consecutive rows of one log, whose widths always
   agree, so every port counts. *)
let node_stats (run : Sim.run) nid =
  let l = run.Sim.logs.(nid) and widths = run.Sim.widths.(nid) in
  let n = l.Sim.count and stride = l.Sim.stride in
  if n < 2 then no_switching
  else begin
    let bits = ref 0 in
    for p = 1 to stride - 4 do
      bits := !bits + widths.(p)
    done;
    let bits = !bits in
    let in_acc = ref 0. and out_acc = ref 0 in
    let prev = ref l.Sim.chunks.(0) and prev_row = ref 0 in
    for c = 0 to Array.length l.Sim.chunks - 1 do
      let chunk = l.Sim.chunks.(c) in
      for j = (if c = 0 then 1 else 0) to chunk_rows n c - 1 do
        let a = !prev and ra = !prev_row and rb = j * stride in
        let diff = ref 0 in
        for col = 1 to stride - 4 do
          diff := !diff + Bitvec.popcount_bits (a.(ra + col) lxor chunk.(rb + col))
        done;
        in_acc := !in_acc +. if bits = 0 then 0. else float_of_int !diff /. float_of_int bits;
        out_acc := !out_acc + Bitvec.popcount_bits (a.(ra) lxor chunk.(rb));
        prev := chunk;
        prev_row := rb
      done
    done;
    stats ~n ~in_acc:!in_acc ~out_acc:!out_acc ~out_bits:((n - 1) * widths.(0))
  end

(* A multi-node unit: the k-way merge, with the previous firing's row. *)
let merged_stats (run : Sim.run) nids =
  let widths = Array.map (fun nid -> run.Sim.widths.(nid)) nids in
  let n = ref 0 and in_acc = ref 0. and out_acc = ref 0 and out_bits = ref 0 in
  let prev_s = ref 0 and prev = ref [||] and prev_row = ref 0 in
  iter_merged run nids (fun s chunk row ->
      if !n > 0 then begin
        let wa = widths.(!prev_s) and wb = widths.(s) and a = !prev and ra = !prev_row in
        let bits = ref 0 and diff = ref 0 in
        for col = 1 to min (Array.length wa) (Array.length wb) - 1 do
          let w = wa.(col) in
          if w = wb.(col) then begin
            bits := !bits + w;
            diff := !diff + Bitvec.popcount_bits (a.(ra + col) lxor chunk.(row + col))
          end
        done;
        in_acc := !in_acc +. if !bits = 0 then 0. else float_of_int !diff /. float_of_int !bits;
        let w = wa.(0) in
        if w = wb.(0) then begin
          out_acc := !out_acc + Bitvec.popcount_bits (a.(ra) lxor chunk.(row));
          out_bits := !out_bits + w
        end
      end;
      prev_s := s;
      prev := chunk;
      prev_row := row;
      incr n);
  stats ~n:!n ~in_acc:!in_acc ~out_acc:!out_acc ~out_bits:!out_bits

let unit_switching_stats run nodes =
  match nodes with
  | [] -> no_switching
  | [ nid ] -> node_stats run nid
  | _ -> merged_stats run (Array.of_list nodes)

let value_switching run ~key =
  match key with
  | Datapath.K_const _ -> 0.
  | Datapath.K_node nid ->
    column_switching run.Sim.logs.(nid) ~width:(Sim.output_width run nid) 0
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
      column_switching run.Sim.logs.(nid) ~width:(Sim.input_width run nid port) (port + 1))
