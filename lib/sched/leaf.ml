module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Analysis = Impact_cdfg.Analysis
module Module_library = Impact_modlib.Module_library
module Itbl = Hashtbl.Make (Int)

type spec = { spec_node : Ir.node_id; spec_phase : Stg.phase }

let normal n = { spec_node = n; spec_phase = Stg.Normal }
let merge_init n = { spec_node = n; spec_phase = Stg.Merge_init }
let merge_back n = { spec_node = n; spec_phase = Stg.Merge_back }

type slot = {
  mutable s_start_state : int;
  mutable s_end_state : int;
  mutable s_start_ns : float;
  mutable s_finish_ns : float;  (* inside the final state of the firing *)
  mutable s_chain_pos : int;
  mutable s_scheduled : bool;
  mutable s_forced_guard : bool;
}

let ports_of_phase node phase =
  match phase with
  | Stg.Normal -> List.init (Array.length node.Ir.inputs) Fun.id
  | Stg.Merge_init -> [ 0 ]
  | Stg.Merge_back -> [ 1 ]

(* Everything about a leaf that depends on the program alone.  Immutable
   once built, so one plan serves every reschedule on any domain. *)
type plan = {
  g : Graph.t;
  arr : spec array;
  preds : (int * int) list array;  (* in-leaf data predecessors: (spec index, port) *)
  succs : int list array;
  guards : Guard.t array;  (* effective guard per spec *)
  extern : bool array;
      (* the guard is steerable in hardware: its condition bits are stored
         in registers when the state executes, i.e. their producers are
         outside this leaf *)
}

let prepare analysis specs =
  let g = Analysis.graph analysis in
  let arr = Array.of_list specs in
  let n = Array.length arr in
  (* Spec index per node id, -1 outside the leaf. *)
  let idx_of_node = Array.make (Graph.node_count g) (-1) in
  Array.iteri
    (fun i s ->
      if idx_of_node.(s.spec_node) >= 0 then
        invalid_arg
          (Printf.sprintf "Leaf.schedule: node %d appears twice in one leaf" s.spec_node);
      idx_of_node.(s.spec_node) <- i)
    arr;
  let preds =
    Array.init n (fun i ->
        let nd = Graph.node g arr.(i).spec_node in
        ports_of_phase nd arr.(i).spec_phase
        |> List.filter_map (fun port ->
               match (Graph.edge g nd.Ir.inputs.(port)).Ir.source with
               | Ir.From_node src ->
                 let j = idx_of_node.(src) in
                 if j >= 0 then Some (j, port) else None
               | Ir.Const _ | Ir.Primary_input _ -> None))
  in
  let succs = Array.make n [] in
  Array.iteri (fun i ps -> List.iter (fun (j, _) -> succs.(j) <- i :: succs.(j)) ps) preds;
  let guards = Array.map (fun s -> Analysis.effective_guard analysis s.spec_node) arr in
  let extern =
    Array.map
      (fun guard ->
        Guard.atoms guard
        |> List.for_all (fun { Guard.cond_edge; _ } ->
               match (Graph.edge g cond_edge).Ir.source with
               | Ir.From_node src -> idx_of_node.(src) < 0
               | Ir.Const _ | Ir.Primary_input _ -> true))
      guards
  in
  { g; arr; preds; succs; guards; extern }

let run { g; arr; preds; succs; guards; extern } ~delay ~res ~clock_ns =
  match Array.length arr with
  | 0 -> [ { Stg.firings = [] } ]
  | n ->
    let node i = Graph.node g arr.(i).spec_node in
    let latency i = delay.Models.op_latency_ns arr.(i).spec_node in
    (* Priority: longest latency path to any leaf output (critical path). *)
    let prio = Array.make n nan in
    let rec priority i =
      if Float.is_nan prio.(i) then begin
        prio.(i) <- 0.;
        (* placeholder against accidental cycles *)
        let below = List.fold_left (fun acc j -> max acc (priority j)) 0. succs.(i) in
        prio.(i) <- latency i +. below
      end;
      prio.(i)
    in
    Array.iteri (fun i _ -> ignore (priority i)) arr;
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> Float.compare prio.(b) prio.(a)) order;
    let slots =
      Array.init n (fun _ ->
          {
            s_start_state = -1;
            s_end_state = -1;
            s_start_ns = 0.;
            s_finish_ns = 0.;
            s_chain_pos = 0;
            s_scheduled = false;
            s_forced_guard = false;
          })
    in
    (* Per unit, the spec indices occupying it at each step so far. *)
    let busy : int list array ref Itbl.t = Itbl.create 16 in
    let occupants fu k =
      match Itbl.find_opt busy fu with
      | Some steps when k < Array.length !steps -> !steps.(k)
      | _ -> []
    in
    let occupy fu k i =
      let steps =
        match Itbl.find_opt busy fu with
        | Some steps -> steps
        | None ->
          let steps = ref [||] in
          Itbl.add busy fu steps;
          steps
      in
      let len = Array.length !steps in
      if k >= len then
        steps := Array.append !steps (Array.make (max (k + 1 - len) (len + 4)) []);
      !steps.(k) <- i :: !steps.(k)
    in
    let remaining = ref n in
    let k = ref 0 in
    let max_end = ref (-1) in
    let try_place i =
      let slot = slots.(i) in
      if slot.s_scheduled then false
      else begin
        (* Operand availability.  [chained] means the value comes straight
           off another unit's output in this same state (that is what costs
           the 10% chaining overhead); a pure register read through an input
           mux contributes path delay but no overhead, and still permits a
           multi-cycle spread. *)
        let ready = ref true in
        let start = ref 0. in
        let chain_pos = ref 0 in
        let chained = ref false in
        List.iter
          (fun (j, port) ->
            let pj = slots.(j) in
            if not pj.s_scheduled then ready := false
            else if pj.s_end_state < !k then
              (* register-available at state entry *)
              start :=
                max !start (delay.Models.input_extra_ns arr.(i).spec_node ~port)
            else if
              pj.s_end_state = !k && pj.s_start_state = pj.s_end_state
            then begin
              (* chain from a single-cycle producer in this state *)
              start :=
                max !start
                  (pj.s_finish_ns
                  +. delay.Models.input_extra_ns arr.(i).spec_node ~port);
              chain_pos := max !chain_pos (pj.s_chain_pos + 1);
              chained := true
            end
            else ready := false (* multi-cycle producer still running *))
          preds.(i);
        if not !ready then false
        else begin
          let lat = latency i in
          let chained = !chained in
          let eff =
            lat *. (1. +. if chained then Module_library.chain_overhead else 0.)
          in
          let out_extra = delay.Models.output_extra_ns arr.(i).spec_node in
          let total = !start +. eff +. out_extra in
          let cycles =
            if total <= clock_ns then 1
            else if chained then 0 (* does not fit chained; retry next state *)
            else max 1 (int_of_float (ceil (total /. clock_ns)))
          in
          if cycles = 0 then false
          else begin
            (* Resource check over the occupied span; a pipelined unit is
               busy only in the issue cycle (initiation interval 1). *)
            let fu = res.Models.fu_of arr.(i).spec_node in
            let span =
              if res.Models.pipelined arr.(i).spec_node then [ !k ]
              else List.init cycles (fun d -> !k + d)
            in
            let allowed, shared =
              match fu with
              | None -> (true, [])
              | Some fu ->
                let occ = List.concat_map (fun s -> occupants fu s) span in
                if occ = [] then (true, [])
                else if
                  cycles = 1
                  && extern.(i)
                  && List.for_all
                       (fun j ->
                         slots.(j).s_start_state = slots.(j).s_end_state
                         && extern.(j)
                         && Guard.conflicts guards.(i) guards.(j))
                       occ
                then (true, occ)
                else (false, [])
            in
            if not allowed then false
            else begin
              slot.s_scheduled <- true;
              slot.s_start_state <- !k;
              slot.s_end_state <- !k + cycles - 1;
              slot.s_start_ns <- !start;
              slot.s_finish_ns <-
                (if cycles = 1 then !start +. eff
                 else total -. out_extra -. (float_of_int (cycles - 1) *. clock_ns));
              slot.s_chain_pos <- !chain_pos;
              max_end := max !max_end slot.s_end_state;
              (match fu with
              | Some fu -> List.iter (fun s -> occupy fu s i) span
              | None -> ());
              if shared <> [] then begin
                slot.s_forced_guard <- true;
                List.iter (fun j -> slots.(j).s_forced_guard <- true) shared
              end;
              decr remaining;
              true
            end
          end
        end
      end
    in
    while !remaining > 0 do
      let placed_any = ref false in
      let rec fill () =
        let placed_now = ref false in
        Array.iter
          (fun i ->
            if try_place i then begin
              placed_now := true;
              placed_any := true
            end)
          order;
        if !placed_now then fill ()
      in
      fill ();
      if !remaining > 0 then begin
        if (not !placed_any) && !max_end < !k then begin
          let stuck =
            Array.to_list order
            |> List.filter (fun i -> not slots.(i).s_scheduled)
            |> List.map (fun i ->
                   let missing =
                     preds.(i)
                     |> List.filter (fun (j, _) -> not slots.(j).s_scheduled)
                     |> List.map (fun (j, _) -> (node j).Ir.n_name)
                   in
                   let lat = latency i in
                   let extras =
                     ports_of_phase (node i) arr.(i).spec_phase
                     |> List.map (fun port ->
                            Printf.sprintf "%.1f"
                              (delay.Models.input_extra_ns arr.(i).spec_node ~port))
                     |> String.concat "/"
                   in
                   Printf.sprintf "%s(waits:%s lat=%.1f in=%s out=%.1f fu=%s)"
                     (node i).Ir.n_name
                     (String.concat "," missing)
                     lat extras
                     (delay.Models.output_extra_ns arr.(i).spec_node)
                     (match res.Models.fu_of arr.(i).spec_node with
                     | Some fu -> string_of_int fu
                     | None -> "-"))
          in
          failwith
            (Printf.sprintf "Leaf.schedule: no progress at state %d; stuck: %s" !k
               (String.concat " " stuck))
        end;
        incr k
      end
    done;
    let n_states = max 1 (!max_end + 1) in
    let firing_lists = Array.make n_states [] in
    Array.iteri
      (fun i slot ->
        let guard =
          if slot.s_forced_guard then guards.(i) else Guard.always
        in
        let firing =
          {
            Stg.f_node = arr.(i).spec_node;
            f_phase = arr.(i).spec_phase;
            f_guard = guard;
            f_start_ns = slot.s_start_ns;
            f_finish_ns = slot.s_finish_ns;
            f_chain_pos = slot.s_chain_pos;
          }
        in
        firing_lists.(slot.s_start_state) <- firing :: firing_lists.(slot.s_start_state))
      slots;
    (* (start time, chain position) is a topological key inside a state:
       a chained consumer never starts earlier than its producer and always
       has a strictly larger chain position on ties. *)
    let by_time a b =
      match Float.compare a.Stg.f_start_ns b.Stg.f_start_ns with
      | 0 -> Int.compare a.Stg.f_chain_pos b.Stg.f_chain_pos
      | c -> c
    in
    Array.to_list firing_lists
    |> List.map (fun firings -> { Stg.firings = List.sort by_time firings })

let schedule analysis ~delay ~res ~clock_ns specs =
  run (prepare analysis specs) ~delay ~res ~clock_ns
