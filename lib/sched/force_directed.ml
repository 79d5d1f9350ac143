module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Analysis = Impact_cdfg.Analysis
module Module_library = Impact_modlib.Module_library

type placement = { fd_node : Ir.node_id; fd_step : int; fd_duration : int }

type result = {
  placements : placement list;
  latency : int;
  peak_usage : (Module_library.fu_class * int) list;
}

type op = {
  o_node : Ir.node_id;
  o_class : Module_library.fu_class option;
  o_dur : int;
  o_preds : int list;  (* indices *)
  mutable o_succs : int list;
  mutable o_asap : int;
  mutable o_alap : int;
  mutable o_fixed : int option;
}

let build analysis ~delay ~clock_ns nodes =
  let g = Analysis.graph analysis in
  let arr = Array.of_list nodes in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i nid -> Hashtbl.replace index nid i) arr;
  let ops =
    Array.map
      (fun nid ->
        let n = Graph.node g nid in
        let lat = delay.Models.op_latency_ns nid in
        let dur = max 1 (int_of_float (ceil (lat /. clock_ns))) in
        let preds =
          Array.to_list n.Ir.inputs
          |> List.filter_map (fun eid ->
                 match (Graph.edge g eid).Ir.source with
                 | Ir.From_node src -> Hashtbl.find_opt index src
                 | Ir.Const _ | Ir.Primary_input _ -> None)
          |> List.sort_uniq Int.compare
        in
        {
          o_node = nid;
          o_class = Module_library.class_of_op n.Ir.kind;
          o_dur = dur;
          o_preds = preds;
          o_succs = [];
          o_asap = 0;
          o_alap = 0;
          o_fixed = None;
        })
      arr
  in
  Array.iteri (fun i op -> List.iter (fun p -> ops.(p).o_succs <- i :: ops.(p).o_succs) op.o_preds) ops;
  ops

(* ASAP/ALAP propagation honouring fixed placements; raises on cycles. *)
let compute_frames ops latency =
  let n = Array.length ops in
  let order =
    (* topological order *)
    let state = Array.make n 0 in
    let out = ref [] in
    let rec visit i =
      if state.(i) = 1 then invalid_arg "Force_directed: cyclic operation set";
      if state.(i) = 0 then begin
        state.(i) <- 1;
        List.iter visit ops.(i).o_preds;
        state.(i) <- 2;
        out := i :: !out
      end
    in
    for i = 0 to n - 1 do
      visit i
    done;
    List.rev !out
  in
  List.iter
    (fun i ->
      let op = ops.(i) in
      let earliest =
        List.fold_left
          (fun acc p -> max acc (ops.(p).o_asap + ops.(p).o_dur))
          0 op.o_preds
      in
      op.o_asap <- (match op.o_fixed with Some t -> t | None -> earliest))
    order;
  List.iter
    (fun i ->
      let op = ops.(i) in
      let latest =
        List.fold_left
          (fun acc s -> min acc (ops.(s).o_alap - op.o_dur))
          (latency - op.o_dur) op.o_succs
      in
      op.o_alap <- (match op.o_fixed with Some t -> t | None -> latest))
    (List.rev order);
  Array.iter
    (fun op ->
      if op.o_alap < op.o_asap then
        invalid_arg "Force_directed: latency below the critical path")
    ops

(* Distribution graph: expected concurrency per class and step. *)
let distribution ops latency =
  let table = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      match op.o_class with
      | None -> ()
      | Some cls ->
        let row =
          match Hashtbl.find_opt table cls with
          | Some row -> row
          | None ->
            let row = Array.make latency 0. in
            Hashtbl.add table cls row;
            row
        in
        let width = op.o_alap - op.o_asap + 1 in
        let p = 1. /. float_of_int width in
        for start = op.o_asap to op.o_alap do
          for t = start to min (latency - 1) (start + op.o_dur - 1) do
            row.(t) <- row.(t) +. p
          done
        done)
    ops;
  table

let critical_path ops =
  (* longest path by durations *)
  Array.fold_left (fun acc op -> max acc (op.o_asap + op.o_dur)) 0 ops

let peak ops =
  let table = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      match (op.o_class, op.o_fixed) with
      | Some cls, Some t ->
        for step = t to t + op.o_dur - 1 do
          let key = (cls, step) in
          Hashtbl.replace table key
            (1 + Option.value (Hashtbl.find_opt table key) ~default:0)
        done
      | _ -> ())
    ops;
  let peaks = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (cls, _) count ->
      Hashtbl.replace peaks cls
        (max count (Option.value (Hashtbl.find_opt peaks cls) ~default:0)))
    table;
  Hashtbl.fold (fun cls count acc -> (cls, count) :: acc) peaks []
  |> List.sort compare

let to_result ops latency =
  {
    placements =
      Array.to_list ops
      |> List.map (fun op ->
             { fd_node = op.o_node; fd_step = Option.get op.o_fixed; fd_duration = op.o_dur });
    latency;
    peak_usage = peak ops;
  }

let asap analysis ~delay ~clock_ns nodes =
  let ops = build analysis ~delay ~clock_ns nodes in
  compute_frames ops max_int;
  Array.iter (fun op -> op.o_fixed <- Some op.o_asap) ops;
  let latency = critical_path ops in
  to_result ops latency

let schedule analysis ~delay ~clock_ns ?latency nodes =
  let ops = build analysis ~delay ~clock_ns nodes in
  compute_frames ops max_int;
  let min_latency = critical_path ops in
  let latency = Option.value latency ~default:min_latency in
  if latency < min_latency then
    invalid_arg "Force_directed.schedule: latency below the critical path";
  compute_frames ops latency;
  let n = Array.length ops in
  (* Tentative force of fixing op i at step t: the change in its class's
     distribution, plus the frame-restriction effect on every other
     operation (recomputed frames). *)
  let remaining = ref (Array.to_list (Array.init n Fun.id)) in
  while !remaining <> [] do
    let dg = distribution ops latency in
    let avg cls =
      match Hashtbl.find_opt dg cls with
      | Some row -> Array.fold_left ( +. ) 0. row /. float_of_int latency
      | None -> 0.
    in
    let best = ref None in
    List.iter
      (fun i ->
        let op = ops.(i) in
        for t = op.o_asap to op.o_alap do
          (* self force *)
          let self =
            match op.o_class with
            | None -> 0.
            | Some cls ->
              let row = Option.value (Hashtbl.find_opt dg cls) ~default:[||] in
              let width = op.o_alap - op.o_asap + 1 in
              let p = 1. /. float_of_int width in
              let force = ref 0. in
              (* removing the spread occupancy *)
              for start = op.o_asap to op.o_alap do
                for tau = start to min (latency - 1) (start + op.o_dur - 1) do
                  if Array.length row > tau then
                    force := !force -. (p *. (row.(tau) -. avg cls))
                done
              done;
              (* adding the fixed occupancy *)
              for tau = t to min (latency - 1) (t + op.o_dur - 1) do
                if Array.length row > tau then
                  force := !force +. (row.(tau) -. avg cls)
              done;
              !force
          in
          (* predecessor/successor force: shrunken frames of neighbours *)
          let neighbour =
            List.fold_left
              (fun acc p ->
                let pred = ops.(p) in
                let new_alap = min pred.o_alap (t - pred.o_dur) in
                acc +. float_of_int (pred.o_alap - new_alap) *. 0.1)
              0. op.o_preds
            +. List.fold_left
                 (fun acc s ->
                   let succ = ops.(s) in
                   let new_asap = max succ.o_asap (t + op.o_dur) in
                   acc +. float_of_int (new_asap - succ.o_asap) *. 0.1)
                 0. op.o_succs
          in
          let total = self +. neighbour in
          match !best with
          | Some (bf, _, _) when bf <= total -> ()
          | _ -> best := Some (total, i, t)
        done)
      !remaining;
    match !best with
    | None -> remaining := []
    | Some (_, i, t) ->
      ops.(i).o_fixed <- Some t;
      remaining := List.filter (fun j -> j <> i) !remaining;
      compute_frames ops latency
  done;
  to_result ops latency
