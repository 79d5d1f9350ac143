module Bitvec = Impact_util.Bitvec

type value = Ir.edge_id

type t = {
  g : Graph.t;
  name : string;
  mutable ctrl : Ir.control option;
  mutable loops : Ir.loop_id list;
  mutable ins : (string * int) list;  (* reverse order *)
  mutable outs : (string * Ir.node_id) list;  (* reverse order *)
  mutable pending_merges : Ir.node_id list;
  input_edges : (string, Ir.edge_id) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let create ?(name = "anonymous") () =
  {
    g = Graph.create ();
    name;
    ctrl = None;
    loops = [];
    ins = [];
    outs = [];
    pending_merges = [];
    input_edges = Hashtbl.create 8;
    counters = Hashtbl.create 16;
  }

let graph t = t.g

(* Display names follow the paper's convention: the k-th ADD is "+_k". *)
let display_name t kind =
  let base = Ir.op_name kind in
  let k = (Hashtbl.find_opt t.counters base |> Option.value ~default:0) + 1 in
  Hashtbl.replace t.counters base k;
  Printf.sprintf "%s%d" base k

let const t ?(width = 16) v =
  Graph.add_edge t.g ~source:(Ir.Const (Bitvec.make ~width v)) ~width ()

let const_bool t b =
  Graph.add_edge t.g ~source:(Ir.Const (Bitvec.of_bool b)) ~width:1 ()

let input t name ~width =
  match Hashtbl.find_opt t.input_edges name with
  | Some e -> e
  | None ->
    let e = Graph.add_edge t.g ~source:(Ir.Primary_input name) ~width ~label:name () in
    Hashtbl.add t.input_edges name e;
    t.ins <- (name, width) :: t.ins;
    e

let with_ctrl t ctrl f =
  let saved = t.ctrl in
  t.ctrl <- ctrl;
  Fun.protect ~finally:(fun () -> t.ctrl <- saved) f

let with_loop t loop f =
  let saved = t.loops in
  t.loops <- loop :: saved;
  Fun.protect ~finally:(fun () -> t.loops <- saved) f

let fresh_loop t = Graph.fresh_loop_id t.g

let default_width t kind inputs =
  if Ir.is_condition_producer kind then 1
  else
    match (kind, inputs) with
    (* A Sel's first input is the 1-bit condition; its value width is that
       of the branches. *)
    | Ir.Op_select, _ :: branch :: _ -> (Graph.edge t.g branch).Ir.e_width
    | _, e :: _ -> (Graph.edge t.g e).Ir.e_width
    | _, [] -> 16

let emit t kind ?name ?width inputs =
  let width = match width with Some w -> w | None -> default_width t kind inputs in
  let name = match name with Some n -> n | None -> display_name t kind in
  let nid =
    Graph.add_node t.g ~kind ~inputs ?ctrl:t.ctrl ~width ~loops:t.loops ~name ()
  in
  let out = Graph.add_edge t.g ~source:(Ir.From_node nid) ~width () in
  (nid, out)

let emit_output t name v =
  let width = (Graph.edge t.g v).Ir.e_width in
  let nid =
    Graph.add_node t.g ~kind:(Ir.Op_output name) ~inputs:[ v ] ?ctrl:t.ctrl ~width
      ~loops:t.loops ~name:("Out:" ^ name) ()
  in
  t.outs <- (name, nid) :: t.outs;
  nid

let binop t kind a b = snd (emit t kind [ a; b ])

let select t ~cond ~if_true ~if_false = emit t Ir.Op_select [ cond; if_true; if_false ]

let loop_merge t ~init ~width ?name () =
  let name = match name with Some n -> n | None -> display_name t Ir.Op_loop_merge in
  (* The back input is temporarily the init edge; [set_merge_back] patches
     port 1 once the loop body has produced the carried value. *)
  let nid =
    Graph.add_node t.g ~kind:Ir.Op_loop_merge ~inputs:[ init; init ] ?ctrl:t.ctrl
      ~width ~loops:t.loops ~name ()
  in
  t.pending_merges <- nid :: t.pending_merges;
  let out = Graph.add_edge t.g ~source:(Ir.From_node nid) ~width () in
  (nid, out)

let set_merge_back t nid back =
  if not (List.mem nid t.pending_merges) then
    invalid_arg (Printf.sprintf "Builder.set_merge_back: node %d is not pending" nid);
  Graph.set_node_input t.g nid 1 back;
  t.pending_merges <- List.filter (fun id -> id <> nid) t.pending_merges

let end_loop t v ?name () =
  let name = match name with Some n -> n | None -> display_name t Ir.Op_end_loop in
  let width = (Graph.edge t.g v).Ir.e_width in
  let nid =
    Graph.add_node t.g ~kind:Ir.Op_end_loop ~inputs:[ v ] ?ctrl:t.ctrl ~width
      ~loops:t.loops ~name ()
  in
  let out = Graph.add_edge t.g ~source:(Ir.From_node nid) ~width () in
  (nid, out)

let inputs t = List.rev t.ins
let outputs t = List.rev t.outs

let finish t ~top =
  (match t.pending_merges with
  | [] -> ()
  | pending ->
    invalid_arg
      (Printf.sprintf "Builder.finish: %d loop merges without back values"
         (List.length pending)));
  {
    Graph.graph = t.g;
    top;
    prog_inputs = inputs t;
    prog_outputs = outputs t;
    prog_name = t.name;
  }
