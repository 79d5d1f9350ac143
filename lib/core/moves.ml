module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Module_library = Impact_modlib.Module_library
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Lifetime = Impact_rtl.Lifetime
module Estimate = Impact_power.Estimate
module Rng = Impact_util.Rng

type move =
  | Share_fu of int * int
  | Split_fu of int * Ir.node_id list
  | Substitute of int * string
  | Share_reg of int * int
  | Split_reg of int * Ir.node_id list
  | Restructure of Datapath.port

let describe = function
  | Share_fu (a, b) -> Printf.sprintf "share_fu(%d<-%d)" a b
  | Split_fu (fu, ops) ->
    Printf.sprintf "split_fu(%d,[%s])" fu
      (String.concat "," (List.map string_of_int ops))
  | Substitute (fu, m) -> Printf.sprintf "substitute(%d,%s)" fu m
  | Share_reg (a, b) -> Printf.sprintf "share_reg(%d<-%d)" a b
  | Split_reg (reg, vs) ->
    Printf.sprintf "split_reg(%d,[%s])" reg
      (String.concat "," (List.map string_of_int vs))
  | Restructure (Datapath.P_fu_input (fu, port)) ->
    Printf.sprintf "restructure(fu%d.%d)" fu port
  | Restructure (Datapath.P_reg_write reg) -> Printf.sprintf "restructure(reg%d)" reg

let op_class b nid = Module_library.class_of_op (Graph.node (Binding.graph b) nid).Ir.kind

let unit_serves b keep other =
  let m = Binding.fu_module b keep in
  List.for_all
    (fun nid ->
      match op_class b nid with
      | Some cls -> Module_library.spec_serves m cls
      | None -> false)
    (Binding.fu_ops b other)

let share_fu_candidates (sol : Solution.t) =
  let b = sol.Solution.binding in
  let fus = Binding.fu_ids b in
  List.concat_map
    (fun f1 ->
      List.filter_map
        (fun f2 ->
          if f1 >= f2 || Binding.fu_width b f1 <> Binding.fu_width b f2 then None
          else if unit_serves b f1 f2 then Some (Share_fu (f1, f2))
          else if unit_serves b f2 f1 then Some (Share_fu (f2, f1))
          else None)
        fus)
    fus

let split_fu_candidates (sol : Solution.t) =
  let b = sol.Solution.binding in
  List.concat_map
    (fun fu ->
      match Binding.fu_ops b fu with
      | _ :: _ :: _ as ops -> List.map (fun nid -> Split_fu (fu, [ nid ])) ops
      | _ -> [])
    (Binding.fu_ids b)

let substitute_candidates env (sol : Solution.t) =
  let b = sol.Solution.binding in
  List.concat_map
    (fun fu ->
      let current = (Binding.fu_module b fu).Module_library.spec_name in
      let classes = List.filter_map (op_class b) (Binding.fu_ops b fu) in
      Module_library.all_specs env.Solution.library
      |> List.filter_map (fun spec ->
             if
               spec.Module_library.spec_name <> current
               && List.for_all (Module_library.spec_serves spec) classes
             then Some (Substitute (fu, spec.Module_library.spec_name))
             else None))
    (Binding.fu_ids b)

let share_reg_candidates env (sol : Solution.t) =
  let b = sol.Solution.binding in
  let lt = Estimate.lifetime env.Solution.est_ctx sol.Solution.stg in
  let regs = Binding.reg_ids b in
  List.concat_map
    (fun r1 ->
      List.filter_map
        (fun r2 ->
          if
            r1 < r2
            && Binding.reg_width b r1 = Binding.reg_width b r2
            && Lifetime.regs_can_share lt b r1 r2
          then Some (Share_reg (r1, r2))
          else None)
        regs)
    regs

let split_reg_candidates (sol : Solution.t) =
  let b = sol.Solution.binding in
  List.concat_map
    (fun reg ->
      let values = Binding.reg_values b reg in
      if List.length values + List.length (Binding.reg_input_names b reg) >= 2 then
        List.filter_map
          (fun v ->
            if List.length values >= 2 || Binding.reg_input_names b reg <> [] then
              Some (Split_reg (reg, [ v ]))
            else None)
          values
      else [])
    (Binding.reg_ids b)

let restructure_candidates (sol : Solution.t) =
  Datapath.restructurable sol.Solution.dp
  |> List.filter_map (fun idx ->
         let port = (Datapath.network sol.Solution.dp idx).Datapath.net_port in
         if List.mem port sol.Solution.restructured then None
         else Some (Restructure port))

let candidates env sol ~rng ~max =
  let all =
    share_fu_candidates sol @ split_fu_candidates sol
    @ substitute_candidates env sol
    @ share_reg_candidates env sol
    @ split_reg_candidates sol @ restructure_candidates sol
  in
  let arr = Array.of_list all in
  Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min max (Array.length arr)))

(* Whether [apply] keeps the predecessor's schedule: a split never
   lengthens a path, and a substitution keeps it when the new module is no
   slower than the unit's current one.  Every other move reschedules. *)
let keeps_schedule env (sol : Solution.t) move =
  match move with
  | Split_fu _ | Split_reg _ -> true
  | Substitute (fu, name) -> (
    match Module_library.find env.Solution.library name with
    | exception Not_found -> false
    | spec ->
      spec.Module_library.delay_ns
      <= (Binding.fu_module sol.Solution.binding fu).Module_library.delay_ns +. 1e-9)
  | Share_fu _ | Share_reg _ | Restructure _ -> false

(* Whether a power pricing of [apply]'s result delta-reprices a feasible
   predecessor's ledger (O(footprint) work) rather than reschedule and
   re-estimate from scratch. *)
let reprices env (sol : Solution.t) move =
  sol.Solution.cost < infinity && keeps_schedule env sol move

(* The resources a move touches, named against the *pre-move* binding (a
   split's fresh ids do not exist yet; its source unit/register covers
   every operation the split redistributes).  For a Heavy move this bounds
   its scheduling footprint: only operations bound to these units — or
   reading values held in these registers, whose multiplexer networks the
   move rewires — can see different delay/resource model values, so only
   regions containing such operations can change fragment digest under the
   incremental scheduler.  The classification tests pin that bound against
   {!Impact_sched.Scheduler.region_report}.  It is also every move's pricing
   footprint: the ledger terms of units and registers outside it read
   nothing the move changed but the schedule's shape. *)
let sched_footprint (_sol : Solution.t) move =
  match move with
  | Share_fu (keep, absorb) -> { Estimate.fp_fus = [ keep; absorb ]; fp_regs = [] }
  | Split_fu (fu, _) -> { Estimate.fp_fus = [ fu ]; fp_regs = [] }
  | Substitute (fu, _) -> { Estimate.fp_fus = [ fu ]; fp_regs = [] }
  | Share_reg (keep, absorb) -> { Estimate.fp_fus = []; fp_regs = [ keep; absorb ] }
  | Split_reg (reg, _) -> { Estimate.fp_fus = []; fp_regs = [ reg ] }
  | Restructure (Datapath.P_fu_input (fu, _)) ->
    { Estimate.fp_fus = [ fu ]; fp_regs = [] }
  | Restructure (Datapath.P_reg_write reg) ->
    { Estimate.fp_fus = []; fp_regs = [ reg ] }

let apply ?cache ?metrics ?(delta = true) env (sol : Solution.t) move =
  let b = sol.Solution.binding in
  let restructured = sol.Solution.restructured in
  let reuse_stg = if keeps_schedule env sol move then Some sol.Solution.stg else None in
  let rebuild binding restructured =
    (* Delta re-pricing needs the predecessor's priced ledger and the move's
       footprint; [Estimate.reprice] takes the delta path whenever the new
       schedule has the predecessor's shape, kept or rescheduled.  A split's
       fresh ids are absent from the predecessor's ledger, so they are
       priced afresh without being named. *)
    let delta_arg =
      match Solution.priced_ledger sol with
      | Some lg when delta -> Some (lg, sched_footprint sol move)
      | _ -> None
    in
    Some
      (Solution.rebuild ?cache ?metrics ?delta:delta_arg env ~binding ~restructured ~reuse_stg)
  in
  let rebuild_with = function Ok binding -> rebuild binding restructured | Error _ -> None in
  match move with
  | Share_fu (keep, absorb) -> rebuild_with (Binding.share_fu b keep absorb)
  | Split_fu (fu, ops) -> rebuild_with (Binding.split_fu b fu ops)
  | Substitute (fu, name) -> (
    match Module_library.find env.Solution.library name with
    | exception Not_found -> None
    | spec -> rebuild_with (Binding.substitute_module b fu spec))
  | Share_reg (keep, absorb) -> rebuild_with (Binding.share_reg b keep absorb)
  | Split_reg (reg, values) -> rebuild_with (Binding.split_reg b reg values)
  | Restructure port ->
    if List.mem port restructured then None
    else rebuild (Binding.copy b) (restructured @ [ port ])
