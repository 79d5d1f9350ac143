module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Module_library = Impact_modlib.Module_library
module Keybuf = Impact_util.Keybuf

type fu_info = {
  fi_module : Module_library.spec;
  fi_width : int;
  fi_ops : Ir.node_id list;  (* ascending *)
}

type reg_info = {
  ri_width : int;
  ri_values : Ir.node_id list;  (* producing nodes, ascending *)
  ri_inputs : string list;  (* primary inputs latched here *)
}

type t = {
  g : Graph.t;
  lib : Module_library.t;
  fu_assign : int array;
  reg_assign : int array;
  input_reg : (string, int) Hashtbl.t;
  fu_tbl : (int, fu_info) Hashtbl.t;
  reg_tbl : (int, reg_info) Hashtbl.t;
  mutable next_fu : int;
  mutable next_reg : int;
}

let graph t = t.g
let library t = t.lib

let copy t =
  {
    t with
    fu_assign = Array.copy t.fu_assign;
    reg_assign = Array.copy t.reg_assign;
    input_reg = Hashtbl.copy t.input_reg;
    fu_tbl = Hashtbl.copy t.fu_tbl;
    reg_tbl = Hashtbl.copy t.reg_tbl;
  }

let op_width g (n : Ir.node) =
  Array.fold_left
    (fun acc eid -> max acc (Graph.edge g eid).Ir.e_width)
    n.Ir.n_width n.Ir.inputs

let parallel g lib =
  let nn = Graph.node_count g in
  let t =
    {
      g;
      lib;
      fu_assign = Array.make nn (-1);
      reg_assign = Array.make nn (-1);
      input_reg = Hashtbl.create 8;
      fu_tbl = Hashtbl.create 32;
      reg_tbl = Hashtbl.create 64;
      next_fu = 0;
      next_reg = 0;
    }
  in
  Graph.iter_nodes g ~f:(fun n ->
      (match Module_library.class_of_op n.Ir.kind with
      | Some cls ->
        let id = t.next_fu in
        t.next_fu <- id + 1;
        t.fu_assign.(n.Ir.n_id) <- id;
        Hashtbl.replace t.fu_tbl id
          {
            fi_module = Module_library.fastest lib cls;
            fi_width = op_width g n;
            fi_ops = [ n.Ir.n_id ];
          }
      | None -> ());
      let rid = t.next_reg in
      t.next_reg <- rid + 1;
      t.reg_assign.(n.Ir.n_id) <- rid;
      Hashtbl.replace t.reg_tbl rid
        { ri_width = n.Ir.n_width; ri_values = [ n.Ir.n_id ]; ri_inputs = [] });
  Graph.iter_edges g ~f:(fun e ->
      match e.Ir.source with
      | Ir.Primary_input name ->
        if not (Hashtbl.mem t.input_reg name) then begin
          let rid = t.next_reg in
          t.next_reg <- rid + 1;
          Hashtbl.replace t.input_reg name rid;
          Hashtbl.replace t.reg_tbl rid
            { ri_width = e.Ir.e_width; ri_values = []; ri_inputs = [ name ] }
        end
      | Ir.From_node _ | Ir.Const _ -> ());
  t

(* --- Functional units ---------------------------------------------------- *)

let fu_of t nid = if t.fu_assign.(nid) < 0 then None else Some t.fu_assign.(nid)

let fu_info t id =
  match Hashtbl.find_opt t.fu_tbl id with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Binding: unknown functional unit %d" id)

let fu_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.fu_tbl [] |> List.sort Int.compare
let fu_ops t id = (fu_info t id).fi_ops
let fu_module t id = (fu_info t id).fi_module
let fu_width t id = (fu_info t id).fi_width
let fu_count t = Hashtbl.length t.fu_tbl

let op_class t nid =
  match Module_library.class_of_op (Graph.node t.g nid).Ir.kind with
  | Some cls -> cls
  | None -> assert false

let share_fu t keep absorb =
  if keep = absorb then Error "cannot share a unit with itself"
  else
    match (Hashtbl.find_opt t.fu_tbl keep, Hashtbl.find_opt t.fu_tbl absorb) with
    | None, _ | _, None -> Error "unknown functional unit"
    | Some ki, Some ai ->
      if ki.fi_width <> ai.fi_width then Error "width mismatch"
      else if
        not
          (List.for_all
             (fun nid -> Module_library.spec_serves ki.fi_module (op_class t nid))
             ai.fi_ops)
      then Error "kept module cannot serve absorbed operations"
      else begin
        let t = copy t in
        List.iter (fun nid -> t.fu_assign.(nid) <- keep) ai.fi_ops;
        Hashtbl.replace t.fu_tbl keep
          { ki with fi_ops = List.sort_uniq Int.compare (ki.fi_ops @ ai.fi_ops) };
        Hashtbl.remove t.fu_tbl absorb;
        Ok t
      end

let split_fu t id ops =
  match Hashtbl.find_opt t.fu_tbl id with
  | None -> Error "unknown functional unit"
  | Some info ->
    if ops = [] then Error "empty split"
    else if not (List.for_all (fun nid -> List.mem nid info.fi_ops) ops) then
      Error "operations not on this unit"
    else if List.length ops >= List.length info.fi_ops then Error "split must be strict"
    else begin
      let t = copy t in
      let fresh = t.next_fu in
      t.next_fu <- fresh + 1;
      List.iter (fun nid -> t.fu_assign.(nid) <- fresh) ops;
      Hashtbl.replace t.fu_tbl fresh { info with fi_ops = List.sort Int.compare ops };
      Hashtbl.replace t.fu_tbl id
        { info with fi_ops = List.filter (fun nid -> not (List.mem nid ops)) info.fi_ops };
      Ok t
    end

let substitute_module t id spec =
  match Hashtbl.find_opt t.fu_tbl id with
  | None -> Error "unknown functional unit"
  | Some info ->
    if info.fi_module.Module_library.spec_name = spec.Module_library.spec_name then
      Error "same module"
    else if
      not
        (List.for_all
           (fun nid -> Module_library.spec_serves spec (op_class t nid))
           info.fi_ops)
    then Error "module cannot serve the unit's operations"
    else begin
      let t = copy t in
      Hashtbl.replace t.fu_tbl id { info with fi_module = spec };
      Ok t
    end

(* --- Registers ------------------------------------------------------------ *)

let reg_of t nid = t.reg_assign.(nid)

let reg_of_input t name =
  match Hashtbl.find_opt t.input_reg name with
  | Some rid -> rid
  | None -> invalid_arg (Printf.sprintf "Binding: unknown input %s" name)

let reg_info t id =
  match Hashtbl.find_opt t.reg_tbl id with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Binding: unknown register %d" id)

let reg_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.reg_tbl [] |> List.sort Int.compare
let reg_values t id = (reg_info t id).ri_values
let reg_input_names t id = (reg_info t id).ri_inputs
let reg_width t id = (reg_info t id).ri_width
let reg_count t = Hashtbl.length t.reg_tbl

let share_reg t keep absorb =
  if keep = absorb then Error "cannot share a register with itself"
  else
    match (Hashtbl.find_opt t.reg_tbl keep, Hashtbl.find_opt t.reg_tbl absorb) with
    | None, _ | _, None -> Error "unknown register"
    | Some ki, Some ai ->
      if ki.ri_width <> ai.ri_width then Error "width mismatch"
      else begin
        let t = copy t in
        List.iter (fun nid -> t.reg_assign.(nid) <- keep) ai.ri_values;
        List.iter (fun name -> Hashtbl.replace t.input_reg name keep) ai.ri_inputs;
        Hashtbl.replace t.reg_tbl keep
          {
            ki with
            ri_values = List.sort_uniq Int.compare (ki.ri_values @ ai.ri_values);
            ri_inputs = ki.ri_inputs @ ai.ri_inputs;
          };
        Hashtbl.remove t.reg_tbl absorb;
        Ok t
      end

let split_reg t id values =
  match Hashtbl.find_opt t.reg_tbl id with
  | None -> Error "unknown register"
  | Some info ->
    if values = [] then Error "empty split"
    else if not (List.for_all (fun nid -> List.mem nid info.ri_values) values) then
      Error "values not in this register"
    else if List.length values >= List.length info.ri_values + List.length info.ri_inputs
    then Error "split must be strict"
    else begin
      let t = copy t in
      let fresh = t.next_reg in
      t.next_reg <- fresh + 1;
      List.iter (fun nid -> t.reg_assign.(nid) <- fresh) values;
      Hashtbl.replace t.reg_tbl fresh
        { info with ri_values = List.sort Int.compare values; ri_inputs = [] };
      Hashtbl.replace t.reg_tbl id
        {
          info with
          ri_values = List.filter (fun nid -> not (List.mem nid values)) info.ri_values;
        };
      Ok t
    end

let fu_area t =
  Hashtbl.fold
    (fun _ info acc ->
      acc +. Module_library.scaled_area info.fi_module ~width:info.fi_width)
    t.fu_tbl 0.

let reg_area t =
  Hashtbl.fold
    (fun _ info acc -> acc +. Module_library.register_area ~width:info.ri_width)
    t.reg_tbl 0.

(* --- Canonical key ---------------------------------------------------------- *)

(* Unit and register ids depend on the move order that produced a binding,
   so groups are named by their contents.  Groups are disjoint and
   non-empty, so emitting each at its smallest member during one ascending
   walk over node ids is canonical without sorting anything (member lists
   are kept ascending).  Input-only registers have no node to anchor at and
   go last, sorted by their input names. *)
let add_key kb t =
  Array.iteri
    (fun nid fu ->
      (if fu >= 0 then
         match Hashtbl.find t.fu_tbl fu with
         | { fi_module; fi_ops = op :: _ as ops; _ } when op = nid ->
           Keybuf.tag kb 'F';
           Keybuf.string kb fi_module.Module_library.spec_name;
           Keybuf.ints kb ops
         | _ -> ());
      match Hashtbl.find t.reg_tbl t.reg_assign.(nid) with
      | { ri_values = v :: _ as values; ri_inputs; _ } when v = nid ->
        Keybuf.tag kb 'R';
        Keybuf.ints kb values;
        Keybuf.list kb Keybuf.string (List.sort String.compare ri_inputs)
      | _ -> ())
    t.fu_assign;
  Hashtbl.fold
    (fun _ ri acc ->
      if ri.ri_values = [] then List.sort String.compare ri.ri_inputs :: acc else acc)
    t.reg_tbl []
  |> List.sort (List.compare String.compare)
  |> List.iter (fun names ->
         Keybuf.tag kb 'I';
         Keybuf.list kb Keybuf.string names)

(* --- Portable form --------------------------------------------------------- *)

(* The snapshot keeps the Hashtbls themselves (copied), not a normalized
   listing: Marshal preserves their internal bucket layout, so fold-based
   float summations (fu_area, reg_area, the estimator's per-resource
   sweeps) enumerate in the same order after a round-trip — a requirement
   for the store's bit-identity guarantee. *)
type portable = {
  p_fu_assign : int array;
  p_reg_assign : int array;
  p_input_reg : (string, int) Hashtbl.t;
  p_fu_tbl : (int, fu_info) Hashtbl.t;
  p_reg_tbl : (int, reg_info) Hashtbl.t;
  p_next_fu : int;
  p_next_reg : int;
}

let to_portable t =
  {
    p_fu_assign = Array.copy t.fu_assign;
    p_reg_assign = Array.copy t.reg_assign;
    p_input_reg = Hashtbl.copy t.input_reg;
    p_fu_tbl = Hashtbl.copy t.fu_tbl;
    p_reg_tbl = Hashtbl.copy t.reg_tbl;
    p_next_fu = t.next_fu;
    p_next_reg = t.next_reg;
  }

let of_portable g lib p =
  let nn = Graph.node_count g in
  if Array.length p.p_fu_assign <> nn || Array.length p.p_reg_assign <> nn then
    Error
      (Printf.sprintf "binding snapshot is for a %d-node graph, not %d"
         (Array.length p.p_fu_assign) nn)
  else begin
    let module_mismatch =
      Hashtbl.fold
        (fun _ info acc ->
          match acc with
          | Some _ -> acc
          | None -> (
            match Module_library.find lib info.fi_module.Module_library.spec_name with
            | spec when spec = info.fi_module -> None
            | _ -> Some info.fi_module.Module_library.spec_name
            | exception Not_found -> Some info.fi_module.Module_library.spec_name))
        p.p_fu_tbl None
    in
    match module_mismatch with
    | Some name -> Error (Printf.sprintf "module %s unknown to or changed in the library" name)
    | None ->
      Ok
        {
          g;
          lib;
          fu_assign = Array.copy p.p_fu_assign;
          reg_assign = Array.copy p.p_reg_assign;
          input_reg = Hashtbl.copy p.p_input_reg;
          fu_tbl = Hashtbl.copy p.p_fu_tbl;
          reg_tbl = Hashtbl.copy p.p_reg_tbl;
          next_fu = p.p_next_fu;
          next_reg = p.p_next_reg;
        }
  end
