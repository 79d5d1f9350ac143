type t = {
  g : Graph.t;
  use_map : (Ir.node_id * int) list array;  (* edge -> (consumer, port) *)
  ctrl_map : Ir.node_id list array;  (* edge -> control consumers *)
  mutable guards : Guard.t option array;  (* node -> memoized effective guard *)
}

let create g =
  let ne = Graph.edge_count g and nn = Graph.node_count g in
  let use_map = Array.make ne [] and ctrl_map = Array.make ne [] in
  for nid = nn - 1 downto 0 do
    let n = Graph.node g nid in
    Array.iteri (fun port eid -> use_map.(eid) <- (nid, port) :: use_map.(eid)) n.Ir.inputs;
    match n.Ir.ctrl with
    | Some { Ir.ctrl_edge; _ } -> ctrl_map.(ctrl_edge) <- nid :: ctrl_map.(ctrl_edge)
    | None -> ()
  done;
  { g; use_map; ctrl_map; guards = Array.make nn None }

let graph t = t.g
let uses t eid = t.use_map.(eid)
let ctrl_uses t eid = t.ctrl_map.(eid)

(* The guard of a node is its own control atom conjoined with the guard of
   the node that produces the control value; chains are finite because
   control always flows from outer conditions to inner ones. *)
let rec effective_guard t nid =
  match t.guards.(nid) with
  | Some g -> g
  | None ->
    let n = Graph.node t.g nid in
    let g =
      match n.Ir.ctrl with
      | None -> Guard.always
      | Some ctrl ->
        let own = [ Guard.of_control ctrl ] in
        let parent =
          match (Graph.edge t.g ctrl.Ir.ctrl_edge).Ir.source with
          | Ir.From_node src -> effective_guard t src
          | Ir.Const _ | Ir.Primary_input _ -> Guard.always
        in
        if Guard.conflicts own parent then own else Guard.conj own parent
    in
    t.guards.(nid) <- Some g;
    g

let mutually_exclusive t a b =
  Guard.conflicts (effective_guard t a) (effective_guard t b)

let condition_edges t =
  let acc = ref [] in
  for eid = Array.length t.ctrl_map - 1 downto 0 do
    if t.ctrl_map.(eid) <> [] then acc := eid :: !acc
  done;
  !acc
