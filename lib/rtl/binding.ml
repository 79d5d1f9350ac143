module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Module_library = Impact_modlib.Module_library
module Keybuf = Impact_util.Keybuf
module Vec = Impact_util.Vec

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

(* Unit and register ids are allocated densely (a split takes the next
   free id, the array's length), so both tables are arrays indexed by id;
   an absorbed id keeps a [None] slot.  Arrays are never written after a
   move returns them, so a move copies only the arrays it changes. *)
type t = {
  g : Graph.t;
  lib : Module_library.t;
  fu_assign : int array;
  reg_assign : int array;
  input_reg : (string * int) list;
  fus : fu_info option array;
  regs : reg_info option array;
}

let graph t = t.g
let library t = t.lib

let copy t =
  {
    t with
    fu_assign = Array.copy t.fu_assign;
    reg_assign = Array.copy t.reg_assign;
    fus = Array.copy t.fus;
    regs = Array.copy t.regs;
  }

let op_width g (n : Ir.node) =
  Array.fold_left
    (fun acc eid -> max acc (Graph.edge g eid).Ir.e_width)
    n.Ir.n_width n.Ir.inputs

let parallel g lib =
  let nn = Graph.node_count g in
  let fu_assign = Array.make nn (-1) and reg_assign = Array.make nn (-1) in
  let fus = Vec.create () and regs = Vec.create () and inputs = ref [] in
  Graph.iter_nodes g ~f:(fun n ->
      (match Module_library.class_of_op n.Ir.kind with
      | Some cls ->
        fu_assign.(n.Ir.n_id) <-
          Vec.push fus
            (Some
               {
                 fi_module = Module_library.fastest lib cls;
                 fi_width = op_width g n;
                 fi_ops = [ n.Ir.n_id ];
               })
      | None -> ());
      reg_assign.(n.Ir.n_id) <-
        Vec.push regs (Some { ri_width = n.Ir.n_width; ri_values = [ n.Ir.n_id ]; ri_inputs = [] }));
  Graph.iter_edges g ~f:(fun e ->
      match e.Ir.source with
      | Ir.Primary_input name when not (List.mem_assoc name !inputs) ->
        let rid = Vec.push regs (Some { ri_width = e.Ir.e_width; ri_values = []; ri_inputs = [ name ] }) in
        inputs := (name, rid) :: !inputs
      | Ir.Primary_input _ | Ir.From_node _ | Ir.Const _ -> ());
  { g; lib; fu_assign; reg_assign; input_reg = !inputs; fus = Vec.to_array fus; regs = Vec.to_array regs }

let slot tbl id = if id >= 0 && id < Array.length tbl then tbl.(id) else None

(* Live ids, ascending, in one backward scan. *)
let live_ids tbl =
  let rec scan i acc =
    if i < 0 then acc else scan (i - 1) (match tbl.(i) with Some _ -> i :: acc | None -> acc)
  in
  scan (Array.length tbl - 1) []

let live_count tbl = Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 tbl

(* --- Functional units ---------------------------------------------------- *)

let fu_of t nid = if t.fu_assign.(nid) < 0 then None else Some t.fu_assign.(nid)

let fu_info t id =
  match slot t.fus id with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Binding: unknown functional unit %d" id)

let fu_ids t = live_ids t.fus
let fu_ops t id = (fu_info t id).fi_ops
let fu_module t id = (fu_info t id).fi_module
let fu_width t id = (fu_info t id).fi_width
let fu_count t = live_count t.fus

let op_class t nid =
  match Module_library.class_of_op (Graph.node t.g nid).Ir.kind with
  | Some cls -> cls
  | None -> assert false

let share_fu t keep absorb =
  if keep = absorb then Error "cannot share a unit with itself"
  else
    match (slot t.fus keep, slot t.fus absorb) with
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
        let t = { t with fu_assign = Array.copy t.fu_assign; fus = Array.copy t.fus } in
        List.iter (fun nid -> t.fu_assign.(nid) <- keep) ai.fi_ops;
        t.fus.(keep) <- Some { ki with fi_ops = List.sort_uniq Int.compare (ki.fi_ops @ ai.fi_ops) };
        t.fus.(absorb) <- None;
        Ok t
      end

let split_fu t id ops =
  match slot t.fus id with
  | None -> Error "unknown functional unit"
  | Some info ->
    if ops = [] then Error "empty split"
    else if not (List.for_all (fun nid -> List.mem nid info.fi_ops) ops) then
      Error "operations not on this unit"
    else if List.length ops >= List.length info.fi_ops then Error "split must be strict"
    else begin
      let fresh = Array.length t.fus in
      let t =
        {
          t with
          fu_assign = Array.copy t.fu_assign;
          fus = Array.append t.fus [| Some { info with fi_ops = List.sort Int.compare ops } |];
        }
      in
      List.iter (fun nid -> t.fu_assign.(nid) <- fresh) ops;
      t.fus.(id) <-
        Some { info with fi_ops = List.filter (fun nid -> not (List.mem nid ops)) info.fi_ops };
      Ok t
    end

let substitute_module t id spec =
  match slot t.fus id with
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
      let fus = Array.copy t.fus in
      fus.(id) <- Some { info with fi_module = spec };
      Ok { t with fus }
    end

(* --- Registers ------------------------------------------------------------ *)

let reg_of t nid = t.reg_assign.(nid)

let reg_of_input t name =
  match List.find_opt (fun (n, _) -> String.equal n name) t.input_reg with
  | Some (_, rid) -> rid
  | None -> invalid_arg (Printf.sprintf "Binding: unknown input %s" name)

let reg_info t id =
  match slot t.regs id with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Binding: unknown register %d" id)

let reg_ids t = live_ids t.regs
let reg_values t id = (reg_info t id).ri_values
let reg_input_names t id = (reg_info t id).ri_inputs
let reg_width t id = (reg_info t id).ri_width
let reg_count t = live_count t.regs

let share_reg t keep absorb =
  if keep = absorb then Error "cannot share a register with itself"
  else
    match (slot t.regs keep, slot t.regs absorb) with
    | None, _ | _, None -> Error "unknown register"
    | Some ki, Some ai ->
      if ki.ri_width <> ai.ri_width then Error "width mismatch"
      else begin
        let t =
          {
            t with
            reg_assign = Array.copy t.reg_assign;
            regs = Array.copy t.regs;
            input_reg =
              List.map
                (fun (name, rid) -> (name, if List.exists (String.equal name) ai.ri_inputs then keep else rid))
                t.input_reg;
          }
        in
        List.iter (fun nid -> t.reg_assign.(nid) <- keep) ai.ri_values;
        t.regs.(keep) <-
          Some
            {
              ki with
              ri_values = List.sort_uniq Int.compare (ki.ri_values @ ai.ri_values);
              ri_inputs = ki.ri_inputs @ ai.ri_inputs;
            };
        t.regs.(absorb) <- None;
        Ok t
      end

let split_reg t id values =
  match slot t.regs id with
  | None -> Error "unknown register"
  | Some info ->
    if values = [] then Error "empty split"
    else if not (List.for_all (fun nid -> List.mem nid info.ri_values) values) then
      Error "values not in this register"
    else if List.length values >= List.length info.ri_values + List.length info.ri_inputs
    then Error "split must be strict"
    else begin
      let fresh = Array.length t.regs in
      let t =
        {
          t with
          reg_assign = Array.copy t.reg_assign;
          regs =
            Array.append t.regs
              [| Some { info with ri_values = List.sort Int.compare values; ri_inputs = [] } |];
        }
      in
      List.iter (fun nid -> t.reg_assign.(nid) <- fresh) values;
      t.regs.(id) <-
        Some
          {
            info with
            ri_values = List.filter (fun nid -> not (List.mem nid values)) info.ri_values;
          };
      Ok t
    end

(* Every term is an integer library area times [width /. 16.], a multiple
   of 1/16 far below 2^49, so each partial sum is exact and the total is
   the same float in any summation order (here ascending id). *)
let sum_live f tbl = Array.fold_left (fun acc -> function Some i -> acc +. f i | None -> acc) 0. tbl
let fu_area t = sum_live (fun i -> Module_library.scaled_area i.fi_module ~width:i.fi_width) t.fus
let reg_area t = sum_live (fun i -> Module_library.register_area ~width:i.ri_width) t.regs

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
         match t.fus.(fu) with
         | Some { fi_module; fi_ops = op :: _ as ops; _ } when op = nid ->
           Keybuf.tag kb 'F';
           Keybuf.string kb fi_module.Module_library.spec_name;
           Keybuf.ints kb ops
         | _ -> ());
      match t.regs.(t.reg_assign.(nid)) with
      | Some { ri_values = v :: _ as values; ri_inputs; _ } when v = nid ->
        Keybuf.tag kb 'R';
        Keybuf.ints kb values;
        Keybuf.list kb Keybuf.string (List.sort String.compare ri_inputs)
      | _ -> ())
    t.fu_assign;
  Array.fold_left
    (fun acc -> function
      | Some { ri_values = []; ri_inputs; _ } -> List.sort String.compare ri_inputs :: acc
      | _ -> acc)
    [] t.regs
  |> List.sort (List.compare String.compare)
  |> List.iter (fun names ->
         Keybuf.tag kb 'I';
         Keybuf.list kb Keybuf.string names)

(* --- Portable form --------------------------------------------------------- *)

(* The binding without its graph and library.  Its arrays are never
   written after a move returns them, so the snapshot shares them. *)
type portable = {
  p_fu_assign : int array;
  p_reg_assign : int array;
  p_input_reg : (string * int) list;
  p_fus : fu_info option array;
  p_regs : reg_info option array;
}

let to_portable t =
  {
    p_fu_assign = t.fu_assign;
    p_reg_assign = t.reg_assign;
    p_input_reg = t.input_reg;
    p_fus = t.fus;
    p_regs = t.regs;
  }

let of_portable g lib p =
  let nn = Graph.node_count g in
  if Array.length p.p_fu_assign <> nn || Array.length p.p_reg_assign <> nn then
    Error
      (Printf.sprintf "binding snapshot is for a %d-node graph, not %d"
         (Array.length p.p_fu_assign) nn)
  else begin
    let module_mismatch =
      Array.find_map
        (function
          | None -> None
          | Some info -> (
            let name = info.fi_module.Module_library.spec_name in
            match Module_library.find lib name with
            | spec when spec = info.fi_module -> None
            | _ | (exception Not_found) -> Some name))
        p.p_fus
    in
    match module_mismatch with
    | Some name -> Error (Printf.sprintf "module %s unknown to or changed in the library" name)
    | None ->
      Ok
        {
          g;
          lib;
          fu_assign = p.p_fu_assign;
          reg_assign = p.p_reg_assign;
          input_reg = p.p_input_reg;
          fus = p.p_fus;
          regs = p.p_regs;
        }
  end
