module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Module_library = Impact_modlib.Module_library
module Models = Impact_sched.Models

type key =
  | K_node of Ir.node_id
  | K_const of Impact_util.Bitvec.t
  | K_input of string

type port = P_fu_input of int * int | P_reg_write of int

type network = {
  net_port : port;
  net_keys : key array;
  net_width : int;
  net : Muxnet.t;
}

type t = {
  b : Binding.t;
  nets : network array;
  fu_index : int array array;  (* unit id -> port -> network, -1 for none *)
  reg_index : int array;  (* register id -> network, -1 for none *)
}

let key_equal a b =
  match (a, b) with
  | K_node x, K_node y -> Int.equal x y
  | K_const x, K_const y -> Impact_util.Bitvec.equal x y
  | K_input x, K_input y -> String.equal x y
  | (K_node _ | K_const _ | K_input _), _ -> false

let key_of_edge g eid =
  match (Graph.edge g eid).Ir.source with
  | Ir.From_node nid -> K_node nid
  | Ir.Const v -> K_const v
  | Ir.Primary_input name -> K_input name

let operand_key b nid ~port =
  key_of_edge (Binding.graph b) (Graph.node (Binding.graph b) nid).Ir.inputs.(port)

(* What a firing of [nid] steers into its register: the copied value for
   copies/exports/outputs, both entry values for merges, and the node's own
   computed wire otherwise. *)
let write_keys b nid =
  let g = Binding.graph b in
  let n = Graph.node g nid in
  match n.Ir.kind with
  | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> [ key_of_edge g n.Ir.inputs.(0) ]
  | Ir.Op_loop_merge ->
    [ key_of_edge g n.Ir.inputs.(0); key_of_edge g n.Ir.inputs.(1) ]
  | _ -> [ K_node nid ]

let dedup_keys keys =
  List.rev
    (List.fold_left
       (fun seen k -> if List.exists (key_equal k) seen then seen else k :: seen)
       [] keys)

let build b =
  let g = Binding.graph b in
  let nets = ref [] in
  let fu_ids = Binding.fu_ids b and reg_ids = Binding.reg_ids b in
  let id_bound ids = List.fold_left (fun m id -> max m (id + 1)) 0 ids in
  let fu_index = Array.make (id_bound fu_ids) [||] in
  let reg_index = Array.make (id_bound reg_ids) (-1) in
  let count = ref 0 in
  let add_net port width keys =
    match keys with
    | [] | [ _ ] -> None
    | _ ->
      let id = !count in
      incr count;
      nets :=
        {
          net_port = port;
          net_keys = Array.of_list keys;
          net_width = width;
          net = Muxnet.create ~n_leaves:(List.length keys);
        }
        :: !nets;
      Some id
  in
  (* Functional-unit input port networks. *)
  List.iter
    (fun fu ->
      let ops = Binding.fu_ops b fu in
      let max_arity =
        List.fold_left
          (fun acc nid -> max acc (Array.length (Graph.node g nid).Ir.inputs))
          0 ops
      in
      fu_index.(fu) <- Array.make max_arity (-1);
      for port = 0 to max_arity - 1 do
        let keys =
          ops
          |> List.filter_map (fun nid ->
                 let n = Graph.node g nid in
                 if port < Array.length n.Ir.inputs then
                   Some (key_of_edge g n.Ir.inputs.(port))
                 else None)
          |> dedup_keys
        in
        match add_net (P_fu_input (fu, port)) (Binding.fu_width b fu) keys with
        | Some id -> fu_index.(fu).(port) <- id
        | None -> ()
      done)
    fu_ids;
  (* Register write networks. *)
  List.iter
    (fun reg ->
      let value_keys =
        List.concat_map (fun nid -> write_keys b nid) (Binding.reg_values b reg)
      in
      let input_keys =
        List.map (fun name -> K_input name) (Binding.reg_input_names b reg)
      in
      let keys = dedup_keys (value_keys @ input_keys) in
      match add_net (P_reg_write reg) (Binding.reg_width b reg) keys with
      | Some id -> reg_index.(reg) <- id
      | None -> ())
    reg_ids;
  { b; nets = Array.of_list (List.rev !nets); fu_index; reg_index }

let binding t = t.b
let networks t = t.nets
let network t i = t.nets.(i)
let network_count t = Array.length t.nets
let index_opt a i = if i >= 0 && i < Array.length a && a.(i) >= 0 then Some a.(i) else None

let fu_input_network t ~fu ~port =
  index_opt (if fu >= 0 && fu < Array.length t.fu_index then t.fu_index.(fu) else [||]) port

let reg_write_network t ~reg = index_opt t.reg_index reg

let leaf_of_key net key =
  let rec scan i =
    if i >= Array.length net.net_keys then None
    else if key_equal net.net_keys.(i) key then Some i
    else scan (i + 1)
  in
  scan 0

let restructurable t =
  let acc = ref [] in
  Array.iteri
    (fun i net -> if Array.length net.net_keys >= 3 then acc := i :: !acc)
    t.nets;
  List.rev !acc

let delay_model t =
  let g = Binding.graph t.b in
  let mux = Module_library.mux2_delay_ns in
  let op_latency_ns nid =
    let n = Graph.node g nid in
    match Binding.fu_of t.b nid with
    | Some fu -> (Binding.fu_module t.b fu).Module_library.delay_ns
    | None -> (
      match n.Ir.kind with
      | Ir.Op_select -> Module_library.mux2_delay_ns
      | _ -> 0.)
  in
  let input_extra_ns nid ~port =
    match Binding.fu_of t.b nid with
    | None -> 0.
    | Some fu -> (
      match fu_input_network t ~fu ~port with
      | None -> 0.
      | Some id ->
        let net = t.nets.(id) in
        let key = operand_key t.b nid ~port in
        (match leaf_of_key net key with
        | Some leaf -> mux *. float_of_int (Muxnet.depth_of_leaf net.net leaf)
        | None -> 0.))
  in
  let output_extra_ns nid =
    let reg = Binding.reg_of t.b nid in
    match reg_write_network t ~reg with
    | None -> 0.
    | Some id ->
      let net = t.nets.(id) in
      write_keys t.b nid
      |> List.fold_left
           (fun acc key ->
             match leaf_of_key net key with
             | Some leaf -> max acc (mux *. float_of_int (Muxnet.depth_of_leaf net.net leaf))
             | None -> acc)
           0.
  in
  { Models.op_latency_ns; input_extra_ns; output_extra_ns }

let resource_model t =
  {
    Models.fu_of = (fun nid -> Binding.fu_of t.b nid);
    pipelined =
      (fun nid ->
        match Binding.fu_of t.b nid with
        | Some fu -> (Binding.fu_module t.b fu).Module_library.pipelined
        | None -> false);
  }

let mux_area t =
  Array.fold_left
    (fun acc net ->
      acc
      +. float_of_int (Muxnet.mux_count net.net)
         *. Module_library.mux2_area ~width:net.net_width)
    0. t.nets
  +.
  (* Each Sel node is itself a 2-to-1 mux. *)
  Graph.fold_nodes (Binding.graph t.b) ~init:0. ~f:(fun acc n ->
      match n.Ir.kind with
      | Ir.Op_select -> acc +. Module_library.mux2_area ~width:n.Ir.n_width
      | _ -> acc)

let total_area t ~stg_states ~stg_transitions =
  Binding.fu_area t.b +. Binding.reg_area t.b +. mux_area t
  +. (4.0 *. float_of_int stg_states)
  +. (1.5 *. float_of_int stg_transitions)

let copy t =
  {
    t with
    b = Binding.copy t.b;
    nets = Array.map (fun net -> { net with net = Muxnet.copy net.net }) t.nets;
  }

let to_dot t =
  let module Dot = Impact_util.Dot in
  let g = Binding.graph t.b in
  let dot = Dot.create ~name:"datapath" in
  let fu_id fu = Printf.sprintf "fu%d" fu in
  let reg_id reg = Printf.sprintf "r%d" reg in
  let net_id i = Printf.sprintf "net%d" i in
  List.iter
    (fun fu ->
      let ops =
        String.concat " "
          (List.map (fun nid -> (Graph.node g nid).Ir.n_name) (Binding.fu_ops t.b fu))
      in
      Dot.node dot ~id:(fu_id fu) ~shape:"box"
        (Printf.sprintf "fu%d %s\n%s" fu
           (Binding.fu_module t.b fu).Module_library.spec_name ops))
    (Binding.fu_ids t.b);
  List.iter
    (fun reg ->
      let holders =
        List.map (fun nid -> (Graph.node g nid).Ir.n_name) (Binding.reg_values t.b reg)
        @ Binding.reg_input_names t.b reg
      in
      Dot.node dot ~id:(reg_id reg) ~shape:"cylinder"
        (Printf.sprintf "r%d\n%s" reg (String.concat " " holders)))
    (Binding.reg_ids t.b);
  let key_source = function
    | K_node nid -> (
      match Binding.fu_of t.b nid with
      | Some fu -> Some (fu_id fu)
      | None -> Some (reg_id (Binding.reg_of t.b nid)))
    | K_input name -> Some (reg_id (Binding.reg_of_input t.b name))
    | K_const _ -> None
  in
  Array.iteri
    (fun i net ->
      let label, sink =
        match net.net_port with
        | P_fu_input (fu, port) -> (Printf.sprintf "mux x%d" (Muxnet.mux_count net.net), (fu_id fu, Printf.sprintf "port %d" port))
        | P_reg_write reg -> (Printf.sprintf "mux x%d" (Muxnet.mux_count net.net), (reg_id reg, "write"))
      in
      Dot.node dot ~id:(net_id i) ~shape:"invtrapezium" label;
      Dot.edge dot ~label:(snd sink) (net_id i) (fst sink);
      Array.iter
        (fun key ->
          match key_source key with
          | Some src -> Dot.edge dot src (net_id i)
          | None -> ())
        net.net_keys)
    t.nets;
  (* direct (mux-free) connections: FU operands with a single source *)
  List.iter
    (fun fu ->
      let ops = Binding.fu_ops t.b fu in
      List.iter
        (fun nid ->
          let n = Graph.node g nid in
          Array.iteri
            (fun port _ ->
              if Option.is_none (fu_input_network t ~fu ~port) then
                match key_source (operand_key t.b nid ~port) with
                | Some src -> Dot.edge dot ~style:"dashed" src (fu_id fu)
                | None -> ())
            n.Ir.inputs)
        ops)
    (Binding.fu_ids t.b);
  Dot.render dot
