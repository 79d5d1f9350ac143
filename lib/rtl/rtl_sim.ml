module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Stg = Impact_sched.Stg
module Sim = Impact_sim.Sim
module Bitvec = Impact_util.Bitvec

type observer = {
  on_cycle : pass:int -> state:int -> unit;
  on_firing :
    pass:int ->
    state:int ->
    firing:Stg.firing ->
    inputs:Bitvec.t array ->
    output:Bitvec.t ->
    unit;
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

(* Where an edge's value comes from, resolved once per design. *)
type source =
  | S_const of Bitvec.t
  | S_input of int  (* input register *)
  | S_node of Ir.node_id * int  (* producer and its register *)

type machine = {
  g : Graph.t;
  b : Binding.t;
  sources : source array;  (* by edge id *)
  regs : Bitvec.t option array;  (* by register id *)
  fresh : Bitvec.t array;  (* by node: the value produced in cycle [stamp] *)
  stamp : int array;
  mutable cycle : int;
}

let create g b =
  let resolve (e : Ir.edge) =
    match e.Ir.source with
    | Ir.Const v -> S_const v
    | Ir.Primary_input name -> S_input (Binding.reg_of_input b name)
    | Ir.From_node nid -> S_node (nid, Binding.reg_of b nid)
  in
  let nn = Graph.node_count g in
  {
    g;
    b;
    sources = Array.init (Graph.edge_count g) (fun eid -> resolve (Graph.edge g eid));
    regs = Array.make (1 + List.fold_left max (-1) (Binding.reg_ids b)) None;
    fresh = Array.make nn (Bitvec.zero ~width:1);
    stamp = Array.make nn (-1);
    cycle = 0;
  }

(* Electrically a wire always carries something; before first write we model
   it as zero (same convention as the behavioral simulator). *)
let read_edge m eid =
  match m.sources.(eid) with
  | S_const v -> v
  | S_node (nid, _) when m.stamp.(nid) = m.cycle -> m.fresh.(nid)
  | S_input reg | S_node (_, reg) -> (
    match m.regs.(reg) with
    | Some v -> v
    | None -> Bitvec.zero ~width:(Graph.edge m.g eid).Ir.e_width)

let rec guard_holds m = function
  | [] -> true
  | a :: rest ->
    Bitvec.to_bool (read_edge m a.Guard.cond_edge) = a.Guard.value && guard_holds m rest

let exec_firing m (fr : Stg.firing) =
  let nid = fr.Stg.f_node in
  let n = Graph.node m.g nid in
  let inputs = Array.map (read_edge m) n.Ir.inputs in
  let output =
    match (fr.Stg.f_phase, n.Ir.kind) with
    | Stg.Normal, Ir.Op_resize -> Bitvec.resize ~width:n.Ir.n_width inputs.(0)
    | Stg.Normal, kind -> Sim.compute kind inputs
    | Stg.Merge_init, _ -> inputs.(0)
    | Stg.Merge_back, _ -> inputs.(1)
  in
  m.fresh.(nid) <- output;
  m.stamp.(nid) <- m.cycle;
  m.regs.(Binding.reg_of m.b nid) <- Some output;
  (inputs, output)

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
  let passes = List.length workload in
  let pass_outputs = Array.make (max passes 1) [] in
  let pass_cycles = Array.make (max passes 1) 0 in
  List.iteri
    (fun pass inputs ->
      List.iter
        (fun (name, width) ->
          match List.assoc_opt name inputs with
          | Some v ->
            m.regs.(Binding.reg_of_input m.b name) <- Some (Bitvec.make ~width v)
          | None -> raise (Deadlock (Printf.sprintf "pass %d misses input %s" pass name)))
        program.Graph.prog_inputs;
      let cycles = ref 0 in
      let state = ref stg.Stg.entry in
      while !state <> stg.Stg.exit_id do
        incr cycles;
        if !cycles > max_cycles_per_pass then
          raise (Deadlock (Printf.sprintf "pass %d exceeded %d cycles" pass max_cycles_per_pass));
        observer.on_cycle ~pass ~state:!state;
        m.cycle <- m.cycle + 1;
        List.iter
          (fun fr ->
            if guard_holds m (Guard.atoms fr.Stg.f_guard) then begin
              let inputs, output = exec_firing m fr in
              observer.on_firing ~pass ~state:!state ~firing:fr ~inputs ~output
            end)
          (Stg.firings_of stg !state);
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
          (fun (name, nid) ->
            match m.regs.(Binding.reg_of m.b nid) with
            | Some v -> (name, v)
            | None -> raise (Deadlock (Printf.sprintf "output %s never written" name)))
          program.Graph.prog_outputs)
    workload;
  let total_cycles = Array.fold_left ( + ) 0 pass_cycles in
  {
    pass_outputs;
    pass_cycles;
    total_cycles;
    mean_cycles =
      (if passes = 0 then 0. else float_of_int total_cycles /. float_of_int passes);
  }
