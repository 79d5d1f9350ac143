module Diagnostic = Impact_util.Diagnostic

type issue = Diagnostic.t

let issue ~rule where fmt = Diagnostic.error ~rule ~path:where fmt

let width_issues g (n : Ir.node) =
  let w eid = (Graph.edge g eid).Ir.e_width in
  let input i = n.Ir.inputs.(i) in
  let where = Printf.sprintf "node %d (%s)" n.Ir.n_id n.Ir.n_name in
  let issue fmt = issue ~rule:"cdfg/width-mismatch" where fmt in
  let same_inputs () =
    if w (input 0) <> w (input 1) then
      [ issue "binary operands have widths %d and %d" (w (input 0)) (w (input 1)) ]
    else []
  in
  let out_matches i =
    if n.Ir.n_width <> w (input i) then
      [ issue "output width %d differs from operand width %d" n.Ir.n_width
          (w (input i)) ]
    else []
  in
  let expect_bit i =
    if w (input i) <> 1 then [ issue "operand %d must be 1 bit" i ] else []
  in
  match n.Ir.kind with
  | Ir.Op_add | Ir.Op_sub | Ir.Op_mul -> same_inputs () @ out_matches 0
  | Ir.Op_lt | Ir.Op_le | Ir.Op_gt | Ir.Op_ge | Ir.Op_eq | Ir.Op_ne ->
    same_inputs ()
    @ if n.Ir.n_width <> 1 then [ issue "comparison output must be 1 bit" ] else []
  | Ir.Op_and | Ir.Op_or | Ir.Op_xor ->
    expect_bit 0 @ expect_bit 1
    @ if n.Ir.n_width <> 1 then [ issue "boolean output must be 1 bit" ] else []
  | Ir.Op_not ->
    expect_bit 0
    @ if n.Ir.n_width <> 1 then [ issue "boolean output must be 1 bit" ] else []
  | Ir.Op_shl | Ir.Op_shr -> out_matches 0
  | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> out_matches 0
  | Ir.Op_resize -> []  (* any input width to any output width *)
  | Ir.Op_select ->
    expect_bit 0
    @ (if w (input 1) <> w (input 2) then
         [ issue "select branches have widths %d and %d" (w (input 1))
             (w (input 2)) ]
       else [])
    @ out_matches 1
  | Ir.Op_loop_merge ->
    (if w (input 0) <> w (input 1) then
       [ issue "merge init/back have widths %d and %d" (w (input 0)) (w (input 1)) ]
     else [])
    @ out_matches 0

let ctrl_issues g (n : Ir.node) =
  match n.Ir.ctrl with
  | None -> []
  | Some { Ir.ctrl_edge; _ } ->
    if (Graph.edge g ctrl_edge).Ir.e_width <> 1 then
      [ issue ~rule:"cdfg/ctrl-width"
          (Printf.sprintf "node %d (%s)" n.Ir.n_id n.Ir.n_name)
          "control edge e%d is not 1 bit" ctrl_edge ]
    else []

let merge_issues (n : Ir.node) =
  match n.Ir.kind with
  | Ir.Op_loop_merge when n.Ir.inputs.(0) = n.Ir.inputs.(1) ->
    [ issue ~rule:"cdfg/merge-unpatched"
        (Printf.sprintf "node %d (%s)" n.Ir.n_id n.Ir.n_name)
        "loop merge back value was never patched" ]
  | _ -> []

let region_issues (p : Graph.program) =
  let g = p.Graph.graph in
  let mentioned = Ir.region_nodes p.Graph.top in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun nid ->
      Hashtbl.replace counts nid
        ((Hashtbl.find_opt counts nid |> Option.value ~default:0) + 1))
    mentioned;
  let bad_refs =
    List.filter_map
      (fun nid ->
        if nid < 0 || nid >= Graph.node_count g then
          Some (issue ~rule:"cdfg/region-unknown-node" "region tree" "references unknown node %d" nid)
        else None)
      mentioned
  in
  let dups =
    Hashtbl.fold
      (fun nid k acc ->
        if k > 1 then
          issue ~rule:"cdfg/region-duplicate" "region tree" "node %d appears %d times" nid k
          :: acc
        else acc)
      counts []
  in
  let missing =
    Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
        if Hashtbl.mem counts n.Ir.n_id then acc
        else
          issue ~rule:"cdfg/region-unscheduled" "region tree"
            "node %d (%s) not scheduled anywhere" n.Ir.n_id n.Ir.n_name
          :: acc)
  in
  bad_refs @ dups @ missing

let output_issues (p : Graph.program) =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (name, _) ->
      if Hashtbl.mem seen name then
        issue ~rule:"cdfg/duplicate-output" "outputs" "duplicate output %s" name :: acc
      else begin
        Hashtbl.add seen name ();
        acc
      end)
    [] p.Graph.prog_outputs

(* Cycle detection over data edges, cutting loop-merge back inputs (port 1),
   which are the only legitimate cycles in the model. *)
let cycle_issues g =
  let n = Graph.node_count g in
  let state = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let cycle = ref false in
  let rec visit nid =
    if state.(nid) = 1 then cycle := true
    else if state.(nid) = 0 then begin
      state.(nid) <- 1;
      let node = Graph.node g nid in
      Array.iteri
        (fun port eid ->
          let is_back = node.Ir.kind = Ir.Op_loop_merge && port = 1 in
          if not is_back then
            match (Graph.edge g eid).Ir.source with
            | Ir.From_node src -> visit src
            | Ir.Const _ | Ir.Primary_input _ -> ())
        node.Ir.inputs;
      (match node.Ir.ctrl with
      | Some { Ir.ctrl_edge; _ } -> (
        match (Graph.edge g ctrl_edge).Ir.source with
        | Ir.From_node src -> visit src
        | Ir.Const _ | Ir.Primary_input _ -> ())
      | None -> ());
      state.(nid) <- 2
    end
  in
  for nid = 0 to n - 1 do
    visit nid
  done;
  if !cycle then
    [ issue ~rule:"cdfg/combinational-cycle" "graph"
        "combinational cycle (not through a loop-merge back edge)" ]
  else []

let check (p : Graph.program) =
  let g = p.Graph.graph in
  let per_node =
    Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
        width_issues g n @ ctrl_issues g n @ merge_issues n @ acc)
  in
  per_node @ region_issues p @ output_issues p @ cycle_issues g

let check_exn p =
  Diagnostic.fail_on_errors
    ~header:(Printf.sprintf "CDFG validation failed for %s:" p.Graph.prog_name)
    (check p)
