module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Module_library = Impact_modlib.Module_library
module Stg = Impact_sched.Stg
module Diagnostic = Impact_util.Diagnostic

let issue ~rule where fmt = Diagnostic.error ~rule ~path:where fmt

(* The width a unit must provide for an operation: its result and all its
   operands flow through the unit's datapath. *)
let op_width g (n : Ir.node) =
  Array.fold_left
    (fun acc eid -> max acc (Graph.edge g eid).Ir.e_width)
    n.Ir.n_width n.Ir.inputs

let fu_issues g b =
  Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
      let where = Printf.sprintf "node %d (%s)" n.Ir.n_id n.Ir.n_name in
      match (Module_library.class_of_op n.Ir.kind, Binding.fu_of b n.Ir.n_id) with
      | None, _ -> acc
      | Some _, None ->
        issue ~rule:"binding/unbound-op" where "computational node has no functional unit"
        :: acc
      | Some cls, Some fu ->
        let spec = Binding.fu_module b fu in
        (if not (Module_library.spec_serves spec cls) then
           [ issue ~rule:"binding/fu-class" where
               "module %s of fu%d cannot serve this operation's class"
               spec.Module_library.spec_name fu ]
         else [])
        @ (if Binding.fu_width b fu < op_width g n then
             [ issue ~rule:"binding/fu-width" where
                 "fu%d is %d bits wide but the operation needs %d" fu
                 (Binding.fu_width b fu) (op_width g n) ]
           else [])
        @ acc)

let fu_state_conflict_issues g b (stg : Stg.t) =
  let issues = ref [] in
  Array.iteri
    (fun s state ->
      (* Group this state's firings by functional unit; two compatible
         (non-conflicting) guards on one unit in one state means the unit
         is asked to compute two operations in the same cycle.  Mutually
         exclusive guards are legal: the steering muxes make only one
         execute (Section 3.2 of the paper). *)
      let by_fu = Hashtbl.create 8 in
      List.iter
        (fun (fr : Stg.firing) ->
          match Binding.fu_of b fr.Stg.f_node with
          | None -> ()
          | Some fu ->
            let prev = Hashtbl.find_opt by_fu fu |> Option.value ~default:[] in
            List.iter
              (fun (prev_fr : Stg.firing) ->
                if
                  prev_fr.Stg.f_node <> fr.Stg.f_node
                  && not (Guard.conflicts prev_fr.Stg.f_guard fr.Stg.f_guard)
                then
                  issues :=
                    issue ~rule:"binding/fu-state-conflict"
                      (Printf.sprintf "state %d" s)
                      "n%d (%s) and n%d (%s) both fire on fu%d with compatible guards"
                      prev_fr.Stg.f_node
                      (Graph.node g prev_fr.Stg.f_node).Ir.n_name fr.Stg.f_node
                      (Graph.node g fr.Stg.f_node).Ir.n_name fu
                    :: !issues)
              prev;
            Hashtbl.replace by_fu fu (fr :: prev))
        state.Stg.firings)
    stg.Stg.states;
  !issues

let reg_width_issues (program : Graph.program) g b =
  let input_width name =
    List.assoc_opt name program.Graph.prog_inputs |> Option.value ~default:0
  in
  List.fold_left
    (fun acc reg ->
      let where = Printf.sprintf "reg %d" reg in
      let rw = Binding.reg_width b reg in
      let value_issues =
        List.filter_map
          (fun nid ->
            let n = Graph.node g nid in
            if n.Ir.n_width > rw then
              Some
                (issue ~rule:"binding/reg-width" where
                   "value of n%d (%s) is %d bits but the register is %d" nid
                   n.Ir.n_name n.Ir.n_width rw)
            else None)
          (Binding.reg_values b reg)
      in
      let input_issues =
        List.filter_map
          (fun name ->
            if input_width name > rw then
              Some
                (issue ~rule:"binding/reg-width" where
                   "input %s is %d bits but the register is %d" name
                   (input_width name) rw)
            else None)
          (Binding.reg_input_names b reg)
      in
      value_issues @ input_issues @ acc)
    [] (Binding.reg_ids b)

let reg_lifetime_issues g b lt =
  List.fold_left
    (fun acc reg ->
      let where = Printf.sprintf "reg %d" reg in
      let values = Binding.reg_values b reg in
      let inputs = Binding.reg_input_names b reg in
      let rec pairs acc = function
        | [] -> acc
        | v :: rest ->
          let acc =
            List.fold_left
              (fun acc v' ->
                if Lifetime.values_can_share lt v v' then acc
                else
                  issue ~rule:"binding/reg-lifetime" where
                    "n%d (%s) and n%d (%s) have overlapping lifetimes" v
                    (Graph.node g v).Ir.n_name v' (Graph.node g v').Ir.n_name
                  :: acc)
              acc rest
          in
          pairs acc rest
      in
      let acc = pairs acc values in
      List.fold_left
        (fun acc name ->
          List.fold_left
            (fun acc v ->
              if Lifetime.input_can_share lt name v then acc
              else
                issue ~rule:"binding/reg-lifetime" where
                  "input %s and n%d (%s) have overlapping lifetimes" name v
                  (Graph.node g v).Ir.n_name
                :: acc)
            acc values)
        acc inputs)
    [] (Binding.reg_ids b)

let check program stg b =
  let g = Binding.graph b in
  let lt = Lifetime.analyse program stg in
  fu_issues g b
  @ fu_state_conflict_issues g b stg
  @ reg_width_issues program g b
  @ reg_lifetime_issues g b lt
