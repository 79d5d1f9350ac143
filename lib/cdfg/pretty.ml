module Bitvec = Impact_util.Bitvec
module Dot = Impact_util.Dot

let rec pp_region g ppf region =
  match region with
  | Ir.R_ops ids ->
    Format.fprintf ppf "ops{%s}"
      (String.concat "," (List.map (fun id -> (Graph.node g id).Ir.n_name) ids))
  | Ir.R_seq rs ->
    Format.fprintf ppf "seq[@[%a@]]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") (pp_region g))
      rs
  | Ir.R_if { cond_edge; then_r; else_r; sels } ->
    Format.fprintf ppf "if(e%d)@[{%a}{%a}@]sel{%s}" cond_edge (pp_region g) then_r
      (pp_region g) else_r
      (String.concat "," (List.map string_of_int sels))
  | Ir.R_loop { loop; cond_r; cond_edge; body; _ } ->
    Format.fprintf ppf "loop%d(cond=%a:e%d)@[{%a}@]" loop (pp_region g) cond_r cond_edge
      (pp_region g) body

let to_dot (p : Graph.program) =
  let g = p.Graph.graph in
  let dot = Dot.create ~name:p.Graph.prog_name in
  let node_dot_id nid = Printf.sprintf "n%d" nid in
  let source_dot_id eid e =
    match e.Ir.source with
    | Ir.From_node nid -> node_dot_id nid
    | Ir.Const v ->
      let id = Printf.sprintf "c%d" eid in
      Dot.node dot ~id ~shape:"plaintext" (string_of_int (Bitvec.to_signed v));
      id
    | Ir.Primary_input name ->
      let id = Printf.sprintf "in_%s" name in
      Dot.node dot ~id ~shape:"invtriangle" name;
      id
  in
  Graph.iter_nodes g ~f:(fun n ->
      let shape =
        match n.Ir.kind with
        | Ir.Op_select | Ir.Op_loop_merge -> "trapezium"
        | Ir.Op_end_loop -> "house"
        | Ir.Op_output _ -> "doublecircle"
        | _ -> "ellipse"
      in
      let label =
        match n.Ir.ctrl with
        | None -> n.Ir.n_name
        | Some { Ir.polarity = Ir.Active_high; _ } -> n.Ir.n_name ^ " (+)"
        | Some { Ir.polarity = Ir.Active_low; _ } -> n.Ir.n_name ^ " (-)"
      in
      Dot.node dot ~id:(node_dot_id n.Ir.n_id) ~shape label);
  Graph.iter_nodes g ~f:(fun n ->
      Array.iter
        (fun eid ->
          let e = Graph.edge g eid in
          Dot.edge dot (source_dot_id eid e) (node_dot_id n.Ir.n_id))
        n.Ir.inputs;
      match n.Ir.ctrl with
      | Some { Ir.ctrl_edge; _ } ->
        let e = Graph.edge g ctrl_edge in
        Dot.edge dot ~style:"dashed" (source_dot_id ctrl_edge e) (node_dot_id n.Ir.n_id)
      | None -> ());
  Dot.render dot
