module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Stg = Impact_sched.Stg
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Muxnet = Impact_rtl.Muxnet
module Rtl_sim = Impact_rtl.Rtl_sim
module Module_library = Impact_modlib.Module_library
module Bitvec = Impact_util.Bitvec

type t = {
  m_breakdown : Breakdown.t;
  m_power : float;
  m_vdd : float;
  m_mean_cycles : float;
  m_outputs : (string * Bitvec.t) list array;
}

(* Per-bit Hamming between two operand arrays, portwise. *)
let input_switch prev cur =
  let ports = min (Array.length prev) (Array.length cur) in
  let bits = ref 0 and diff = ref 0 in
  for p = 0 to ports - 1 do
    if Bitvec.width prev.(p) = Bitvec.width cur.(p) then begin
      bits := !bits + Bitvec.width prev.(p);
      diff := !diff + Bitvec.hamming prev.(p) cur.(p)
    end
  done;
  if !bits = 0 then 0. else float_of_int !diff /. float_of_int !bits

let value_switch prev cur =
  if Bitvec.width prev <> Bitvec.width cur then 0.
  else float_of_int (Bitvec.hamming prev cur) /. float_of_int (Bitvec.width prev)

(* Internal muxes of a network, identified by preorder index; for each
   leaf, the muxes on its path to the root, innermost first. *)
let leaf_paths net =
  let paths = Array.make (Muxnet.n_leaves net) [||] in
  let counter = ref 0 in
  let rec walk node on_path =
    match node with
    | Muxnet.L leaf -> paths.(leaf) <- Array.of_list on_path
    | Muxnet.N (l, r) ->
      let my_id = !counter in
      incr counter;
      walk l (my_id :: on_path);
      walk r (my_id :: on_path)
  in
  walk (Muxnet.shape net) [];
  (paths, !counter)

type net_state = {
  ns_paths : int array array;  (* by leaf *)
  ns_mux_values : Bitvec.t option array;
  ns_cap : float;
  mutable ns_energy : float;
}

(* A network access a node's firing makes: the network and the muxes on the
   selected leaf's root path. *)
type access = (net_state * int array) option

(* Everything a node's firing charges, resolved once per design so the
   per-event loop only indexes arrays. *)
type plan = {
  fu : int;  (* -1 for structural nodes *)
  fu_cap : float;
  ports : access array;  (* FU input steering, per input port *)
  sel_cap : float option;  (* Sel mux capacitance *)
  reg : int;
  write_cap : float;
  write_init : access;  (* register write network, on [Merge_init] *)
  write : access;  (* ... in every other phase *)
  wire : float;  (* fanout wiring charge per firing *)
}

let plan_of dp ~nets ~fanout (n : Ir.node) =
  let b = Datapath.binding dp in
  let nid = n.Ir.n_id in
  let access net key =
    Option.bind net (fun idx ->
        Datapath.leaf_of_key (Datapath.network dp idx) key
        |> Option.map (fun leaf -> (nets.(idx), nets.(idx).ns_paths.(leaf))))
  in
  let reg = Binding.reg_of b nid in
  let write_net = Datapath.reg_write_network dp ~reg in
  let write_keys = Array.of_list (Datapath.write_keys b nid) in
  let fu, fu_cap, ports =
    match Binding.fu_of b nid with
    | None -> (-1, 0., [||])
    | Some fu ->
      ( fu,
        Module_library.scaled_cap (Binding.fu_module b fu)
          ~width:(Binding.fu_width b fu),
        Array.mapi
          (fun port _ ->
            access
              (Datapath.fu_input_network dp ~fu ~port)
              (Datapath.operand_key b nid ~port))
          n.Ir.inputs )
  in
  {
    fu;
    fu_cap;
    ports;
    sel_cap =
      (match n.Ir.kind with
      | Ir.Op_select -> Some (Module_library.mux2_cap ~width:n.Ir.n_width)
      | _ -> None);
    reg;
    write_cap = Module_library.register_write_cap ~width:(Binding.reg_width b reg);
    write_init = access write_net write_keys.(0);
    write =
      access write_net
        (if n.Ir.kind = Ir.Op_loop_merge then write_keys.(1) else write_keys.(0));
    wire =
      float_of_int fanout.(nid)
      *. Module_library.wire_cap_per_fanout
      *. (float_of_int n.Ir.n_width /. 16.);
  }

let measure (program : Graph.program) stg dp ~workload ?(vdd = Vdd.nominal)
    ?(encoding = Impact_rtl.Controller.Binary) () =
  let b = Datapath.binding dp in
  let g = Binding.graph b in
  let e_fu = ref 0. and e_reg = ref 0. and e_sel = ref 0. in
  let e_ctrl = ref 0. and e_clock = ref 0. and e_wire = ref 0. in
  let slots ids = Array.make (1 + List.fold_left max (-1) ids) None in
  let fu_last = slots (Binding.fu_ids b) in
  let reg_last = slots (Binding.reg_ids b) in
  let sel_last = Array.make (Graph.node_count g) None in
  let nets =
    Array.map
      (fun net ->
        let paths, n_muxes = leaf_paths net.Datapath.net in
        {
          ns_paths = paths;
          ns_mux_values = Array.make (max n_muxes 1) None;
          ns_cap = Module_library.mux2_cap ~width:net.Datapath.net_width;
          ns_energy = 0.;
        })
      (Datapath.networks dp)
  in
  let plans =
    let fanout = Graph.data_fanout g in
    Array.init (Graph.node_count g) (fun nid ->
        plan_of dp ~nets ~fanout (Graph.node g nid))
  in
  let controller = Impact_rtl.Controller.synthesize stg encoding in
  let decode_per_cycle = Impact_rtl.Controller.decode_cap_per_cycle controller in
  let prev_state = ref None in
  let clock_per_cycle =
    List.fold_left
      (fun acc reg ->
        acc +. Module_library.register_clock_cap ~width:(Binding.reg_width b reg))
      0. (Binding.reg_ids b)
  in
  (* Charge a network access: the selected leaf's value propagates along its
     path to the root; every mux on the path may switch. *)
  let charge_network (access : access) value =
    match access with
    | None -> ()
    | Some (st, path) ->
      Array.iter
        (fun mux ->
          let sw =
            match st.ns_mux_values.(mux) with
            | Some prev -> value_switch prev value
            | None -> 0.
          in
          st.ns_mux_values.(mux) <- Some value;
          st.ns_energy <- st.ns_energy +. (sw *. st.ns_cap))
        path
  in
  (* A first activation charges half the bits on average. *)
  let switch_from last value sw =
    match last with Some prev -> sw prev value | None -> 0.5
  in
  let on_firing ~pass:_ ~state:_ ~firing ~inputs ~output =
    let nid = firing.Stg.f_node in
    let p = plans.(nid) in
    if p.fu >= 0 then begin
      let sw = switch_from fu_last.(p.fu) inputs input_switch in
      fu_last.(p.fu) <- Some inputs;
      e_fu :=
        !e_fu +. (p.fu_cap *. sw *. Module_library.glitch_factor firing.Stg.f_chain_pos);
      Array.iteri (fun port acc -> charge_network acc inputs.(port)) p.ports
    end;
    (match p.sel_cap with
    | Some cap ->
      let sw = switch_from sel_last.(nid) output value_switch in
      sel_last.(nid) <- Some output;
      e_sel := !e_sel +. (cap *. sw)
    | None -> ());
    (* Register write (and its steering network). *)
    let sw = switch_from reg_last.(p.reg) output value_switch in
    reg_last.(p.reg) <- Some output;
    e_reg := !e_reg +. (p.write_cap *. sw);
    charge_network
      (if firing.Stg.f_phase = Stg.Merge_init then p.write_init else p.write)
      output;
    (* Wiring: fanout of the produced value. *)
    e_wire := !e_wire +. p.wire
  in
  let on_cycle ~pass:_ ~state =
    let code_toggles =
      match !prev_state with
      | Some prev -> Impact_rtl.Controller.code_distance controller prev state
      | None -> 0
    in
    prev_state := Some state;
    e_ctrl :=
      !e_ctrl +. decode_per_cycle
      +. (Module_library.controller_ff_cap *. float_of_int code_toggles);
    e_clock := !e_clock +. clock_per_cycle
  in
  let observer = { Rtl_sim.on_cycle; on_firing } in
  let result = Rtl_sim.simulate ~observer program stg b ~workload in
  let cycles = float_of_int (max result.Rtl_sim.total_cycles 1) in
  let net_energy = Array.fold_left (fun acc st -> acc +. st.ns_energy) 0. nets in
  let breakdown =
    {
      Breakdown.p_fu = !e_fu /. cycles;
      p_reg = !e_reg /. cycles;
      p_mux = (!e_sel +. net_energy) /. cycles;
      p_ctrl = !e_ctrl /. cycles;
      p_clock = !e_clock /. cycles;
      p_wire = !e_wire /. cycles;
    }
  in
  {
    m_breakdown = breakdown;
    m_power = Breakdown.total breakdown *. Vdd.power_factor vdd;
    m_vdd = vdd;
    m_mean_cycles = result.Rtl_sim.mean_cycles;
    m_outputs = result.Rtl_sim.pass_outputs;
  }
