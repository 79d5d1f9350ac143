module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Stg = Impact_sched.Stg
module Sim = Impact_sim.Sim
module Bitvec = Impact_util.Bitvec

type observer = {
  on_cycle : pass:int -> state:int -> unit;
  on_firing :
    pass:int -> state:int -> firing:Stg.firing -> inputs:int array -> output:int -> unit;
}

let null_observer =
  {
    on_cycle = (fun ~pass:_ ~state:_ -> ());
    on_firing = (fun ~pass:_ ~state:_ ~firing:_ ~inputs:_ ~output:_ -> ());
  }

type result = {
  pass_outputs : (string * Bitvec.t) list array;
  pass_cycles : int array;
  total_cycles : int;
  mean_cycles : float;
}

exception Deadlock of string

type machine = {
  nodes : Ir.node array;
  in_width : int array;  (* per node: its first operand's width *)
  operands : int array array;  (* per node: the operand bits of its last firing *)
  node_reg : int array;
  producer : int array;  (* per edge: the producing node, or -1 *)
  edge_reg : int array;  (* per edge: the register it is read from *)
  regs : int array;  (* bits by register id, then one slot per constant edge *)
  reg_width : int array;  (* width of the value last written; 0 before any write *)
  fresh : int array;  (* by node: the value produced in cycle [stamp] *)
  stamp : int array;
  mutable cycle : int;
}

(* Each edge is read from a register resolved once per design: its
   producer's, its input's, or a slot past the register file that holds
   its constant. *)
let create g b =
  let nodes = Array.init (Graph.node_count g) (Graph.node g) in
  let ne = Graph.edge_count g in
  let n_regs = 1 + List.fold_left max (-1) (Binding.reg_ids b) in
  let regs = Array.make (n_regs + ne) 0 and producer = Array.make ne (-1) in
  let edge_reg =
    Array.init ne (fun eid ->
        match (Graph.edge g eid).Ir.source with
        | Ir.Const v ->
          regs.(n_regs + eid) <- Bitvec.bits v;
          n_regs + eid
        | Ir.Primary_input name -> Binding.reg_of_input b name
        | Ir.From_node nid ->
          producer.(eid) <- nid;
          Binding.reg_of b nid)
  in
  {
    nodes;
    in_width = Array.map (fun n -> (Graph.edge g n.Ir.inputs.(0)).Ir.e_width) nodes;
    operands = Array.map (fun n -> Array.make (Array.length n.Ir.inputs) 0) nodes;
    node_reg = Array.map (fun n -> Binding.reg_of b n.Ir.n_id) nodes;
    producer;
    edge_reg;
    regs;
    reg_width = Array.make n_regs 0;
    fresh = Array.make (Array.length nodes) 0;
    stamp = Array.make (Array.length nodes) (-1);
    cycle = 0;
  }

(* Electrically a wire always carries something; before first write we model
   it as zero (same convention as the behavioral simulator). *)
let read_edge m eid =
  let nid = m.producer.(eid) in
  if nid >= 0 && m.stamp.(nid) = m.cycle then m.fresh.(nid) else m.regs.(m.edge_reg.(eid))

let rec guard_holds m = function
  | [] -> true
  | a :: rest -> read_edge m a.Guard.cond_edge <> 0 = a.Guard.value && guard_holds m rest

let exec_firing m (fr : Stg.firing) =
  let nid = fr.Stg.f_node in
  let n = m.nodes.(nid) in
  let ins = n.Ir.inputs and operands = m.operands.(nid) in
  let ports = Array.length ins in
  for p = 0 to ports - 1 do
    operands.(p) <- read_edge m ins.(p)
  done;
  let output =
    match fr.Stg.f_phase with
    | Stg.Normal ->
      Sim.eval n.Ir.kind ~width:n.Ir.n_width ~in_width:m.in_width.(nid) operands.(0)
        (if ports > 1 then operands.(1) else 0)
        (if ports > 2 then operands.(2) else 0)
    | Stg.Merge_init -> operands.(0)
    | Stg.Merge_back -> operands.(1)
  in
  m.fresh.(nid) <- output;
  m.stamp.(nid) <- m.cycle;
  let reg = m.node_reg.(nid) in
  m.regs.(reg) <- output;
  m.reg_width.(reg) <- n.Ir.n_width;
  output

(* The first transition of [ts] whose guard holds, with the rest of the
   list after it. *)
let rec first_match m = function
  | [] -> []
  | t :: _ as ts when guard_holds m (Guard.atoms t.Stg.t_guard) -> ts
  | _ :: ts -> first_match m ts

let simulate ?(observer = null_observer) ?(max_cycles_per_pass = 1_000_000)
    (program : Graph.program) (stg : Stg.t) binding ~workload =
  let g = program.Graph.graph in
  let m = create g binding in
  let inputs =
    List.map
      (fun (name, width) ->
        Bitvec.check_width width;
        (name, width, Binding.reg_of_input binding name))
      program.Graph.prog_inputs
  in
  let outputs =
    List.map (fun (name, nid) -> (name, m.node_reg.(nid))) program.Graph.prog_outputs
  in
  let passes = List.length workload in
  let pass_outputs = Array.make (max passes 1) [] in
  let pass_cycles = Array.make (max passes 1) 0 in
  let rec fire_all pass state = function
    | [] -> ()
    | fr :: rest ->
      if guard_holds m (Guard.atoms fr.Stg.f_guard) then begin
        let output = exec_firing m fr in
        observer.on_firing ~pass ~state ~firing:fr ~inputs:m.operands.(fr.Stg.f_node) ~output
      end;
      fire_all pass state rest
  in
  List.iteri
    (fun pass bindings ->
      List.iter
        (fun (name, width, reg) ->
          match List.assoc_opt name bindings with
          | Some v ->
            m.regs.(reg) <- v land Bitvec.mask width;
            m.reg_width.(reg) <- width
          | None -> raise (Deadlock (Printf.sprintf "pass %d misses input %s" pass name)))
        inputs;
      let cycles = ref 0 in
      let state = ref stg.Stg.entry in
      while !state <> stg.Stg.exit_id do
        incr cycles;
        if !cycles > max_cycles_per_pass then
          raise (Deadlock (Printf.sprintf "pass %d exceeded %d cycles" pass max_cycles_per_pass));
        observer.on_cycle ~pass ~state:!state;
        m.cycle <- m.cycle + 1;
        fire_all pass !state (Stg.firings_of stg !state);
        match first_match m stg.Stg.succs.(!state) with
        | [] -> raise (Deadlock (Printf.sprintf "state %d: no matching transition" !state))
        | t :: rest -> (
          match first_match m rest with
          | [] -> state := t.Stg.t_dst
          | _ ->
            let rec count n ts =
              match first_match m ts with [] -> n | _ :: ts -> count (n + 1) ts
            in
            raise
              (Deadlock
                 (Printf.sprintf "state %d: %d matching transitions" !state (count 1 rest))))
      done;
      pass_cycles.(pass) <- !cycles;
      pass_outputs.(pass) <-
        List.map
          (fun (name, reg) ->
            if m.reg_width.(reg) = 0 then
              raise (Deadlock (Printf.sprintf "output %s never written" name));
            (name, Bitvec.make ~width:m.reg_width.(reg) m.regs.(reg)))
          outputs)
    workload;
  let total_cycles = Array.fold_left ( + ) 0 pass_cycles in
  {
    pass_outputs;
    pass_cycles;
    total_cycles;
    mean_cycles =
      (if passes = 0 then 0. else float_of_int total_cycles /. float_of_int passes);
  }
