type t = {
  mutable node_store : Ir.node array;
  mutable n_nodes : int;
  mutable edge_store : Ir.edge array;
  mutable n_edges : int;
  mutable next_loop : int;
}

type program = {
  graph : t;
  top : Ir.region;
  prog_inputs : (string * int) list;
  prog_outputs : (string * Ir.node_id) list;
  prog_name : string;
}

let dummy_edge : Ir.edge =
  { e_id = -1; source = Ir.Primary_input "?"; e_width = 1; label = None }

let dummy_node : Ir.node =
  {
    n_id = -1;
    kind = Ir.Op_copy;
    inputs = [||];
    ctrl = None;
    n_width = 1;
    loops = [];
    n_name = "?";
  }

let create () =
  { node_store = [||]; n_nodes = 0; edge_store = [||]; n_edges = 0; next_loop = 0 }

let push_node t n =
  if t.n_nodes = Array.length t.node_store then begin
    let cap = max 16 (2 * Array.length t.node_store) in
    let fresh = Array.make cap dummy_node in
    Array.blit t.node_store 0 fresh 0 t.n_nodes;
    t.node_store <- fresh
  end;
  t.node_store.(t.n_nodes) <- n;
  t.n_nodes <- t.n_nodes + 1

let push_edge t e =
  if t.n_edges = Array.length t.edge_store then begin
    let cap = max 16 (2 * Array.length t.edge_store) in
    let fresh = Array.make cap dummy_edge in
    Array.blit t.edge_store 0 fresh 0 t.n_edges;
    t.edge_store <- fresh
  end;
  t.edge_store.(t.n_edges) <- e;
  t.n_edges <- t.n_edges + 1

let check_edge_id t id fn =
  if id < 0 || id >= t.n_edges then
    invalid_arg (Printf.sprintf "Graph.%s: unknown edge %d" fn id)

let check_node_id t id fn =
  if id < 0 || id >= t.n_nodes then
    invalid_arg (Printf.sprintf "Graph.%s: unknown node %d" fn id)

let add_edge t ~source ~width ?label () =
  (match source with
  | Ir.From_node id -> check_node_id t id "add_edge"
  | Ir.Const _ | Ir.Primary_input _ -> ());
  if width < 1 || width > Impact_util.Bitvec.max_width then
    invalid_arg (Printf.sprintf "Graph.add_edge: bad width %d" width);
  let e_id = t.n_edges in
  push_edge t { Ir.e_id; source; e_width = width; label };
  e_id

let add_node t ~kind ~inputs ?ctrl ~width ?(loops = []) ?name () =
  let arity = Ir.op_arity kind in
  if List.length inputs <> arity then
    invalid_arg
      (Printf.sprintf "Graph.add_node: %s expects %d inputs, got %d"
         (Ir.op_name kind) arity (List.length inputs));
  List.iter (fun e -> check_edge_id t e "add_node") inputs;
  (match ctrl with
  | Some { Ir.ctrl_edge; _ } -> check_edge_id t ctrl_edge "add_node(ctrl)"
  | None -> ());
  let n_id = t.n_nodes in
  let n_name =
    match name with Some n -> n | None -> Printf.sprintf "%s#%d" (Ir.op_name kind) n_id
  in
  push_node t
    { Ir.n_id; kind; inputs = Array.of_list inputs; ctrl; n_width = width; loops; n_name };
  n_id

let node t id =
  check_node_id t id "node";
  t.node_store.(id)

let edge t id =
  check_edge_id t id "edge";
  t.edge_store.(id)

let set_node_input t id port eid =
  check_node_id t id "set_node_input";
  check_edge_id t eid "set_node_input";
  let n = t.node_store.(id) in
  if port < 0 || port >= Array.length n.Ir.inputs then
    invalid_arg (Printf.sprintf "Graph.set_node_input: bad port %d" port);
  let inputs = Array.copy n.Ir.inputs in
  inputs.(port) <- eid;
  t.node_store.(id) <- { n with Ir.inputs }

let node_count t = t.n_nodes
let edge_count t = t.n_edges
let nodes t = List.init t.n_nodes (fun i -> t.node_store.(i))
let edges t = List.init t.n_edges (fun i -> t.edge_store.(i))

let consumers t eid =
  check_edge_id t eid "consumers";
  let acc = ref [] in
  for i = t.n_nodes - 1 downto 0 do
    if Array.exists (fun e -> e = eid) t.node_store.(i).Ir.inputs then
      acc := i :: !acc
  done;
  !acc

let data_fanout t =
  let fanout = Array.make t.n_nodes 0 in
  for i = 0 to t.n_nodes - 1 do
    Array.iter
      (fun eid ->
        match t.edge_store.(eid).Ir.source with
        | Ir.From_node src -> fanout.(src) <- fanout.(src) + 1
        | Ir.Const _ | Ir.Primary_input _ -> ())
      t.node_store.(i).Ir.inputs
  done;
  fanout

let fold_nodes t ~init ~f =
  let acc = ref init in
  for i = 0 to t.n_nodes - 1 do
    acc := f !acc t.node_store.(i)
  done;
  !acc

let iter_nodes t ~f =
  for i = 0 to t.n_nodes - 1 do
    f t.node_store.(i)
  done

let iter_edges t ~f =
  for i = 0 to t.n_edges - 1 do
    f t.edge_store.(i)
  done

let fresh_loop_id t =
  let id = t.next_loop in
  t.next_loop <- id + 1;
  id
