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

(* Last-seen values, one per slot, as width and bits; width 0 means none
   yet.  [switch] is the per-bit Hamming fraction of a slot's last value to
   a new one, charged 0 across a width change and [first] when the slot has
   seen nothing; it then keeps the new value. *)
type last = { l_width : int array; l_bits : int array }

let last n = { l_width = Array.make n 0; l_bits = Array.make n 0 }

let[@inline] switch l i ~first width bits =
  let pw = l.l_width.(i) and pb = l.l_bits.(i) in
  l.l_width.(i) <- width;
  l.l_bits.(i) <- bits;
  if pw = 0 then first
  else if pw <> width then 0.
  else float_of_int (Bitvec.popcount_bits (pb lxor bits)) /. float_of_int width

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
  ns_id : int;  (* index into the energy array *)
  ns_paths : int array array;  (* by leaf *)
  ns_mux_values : last;  (* by mux *)
  ns_cap : float;
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
  in_widths : int array;  (* per input port *)
  width : int;
  sel_cap : float option;  (* Sel mux capacitance *)
  reg : int;
  write_cap : float;
  write_init : access;  (* register write network, on [Merge_init] *)
  write : access;  (* ... in every other phase *)
  wire : float;  (* fanout wiring charge per firing *)
}

(* Energy per component, summed in firing order. *)
type energy = {
  mutable e_fu : float;
  mutable e_reg : float;
  mutable e_sel : float;
  mutable e_ctrl : float;
  mutable e_clock : float;
  mutable e_wire : float;
}

let plan_of dp ~nets ~fanout (n : Ir.node) =
  let b = Datapath.binding dp in
  let g = Binding.graph b in
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
    in_widths = Array.map (fun eid -> (Graph.edge g eid).Ir.e_width) n.Ir.inputs;
    width = n.Ir.n_width;
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
  let e = { e_fu = 0.; e_reg = 0.; e_sel = 0.; e_ctrl = 0.; e_clock = 0.; e_wire = 0. } in
  let slots ids = 1 + List.fold_left max (-1) ids in
  let max_ports = Graph.fold_nodes g ~init:1 ~f:(fun acc n -> max acc (Array.length n.Ir.inputs)) in
  (* An FU's last operands, [max_ports] slots per FU; the slots past the
     last firing's ports are empty. *)
  let fu_last = last (slots (Binding.fu_ids b) * max_ports) in
  let reg_last = last (slots (Binding.reg_ids b)) in
  let sel_last = last (Graph.node_count g) in
  let nets =
    Array.mapi
      (fun i net ->
        let paths, n_muxes = leaf_paths net.Datapath.net in
        {
          ns_id = i;
          ns_paths = paths;
          ns_mux_values = last (max n_muxes 1);
          ns_cap = Module_library.mux2_cap ~width:net.Datapath.net_width;
        })
      (Datapath.networks dp)
  in
  let net_energy = Array.make (Array.length nets) 0. in
  let plans =
    let fanout = Graph.data_fanout g in
    Array.init (Graph.node_count g) (fun nid ->
        plan_of dp ~nets ~fanout (Graph.node g nid))
  in
  let controller = Impact_rtl.Controller.synthesize stg encoding in
  let decode_per_cycle = Impact_rtl.Controller.decode_cap_per_cycle controller in
  let prev_state = ref (-1) in
  let clock_per_cycle =
    List.fold_left
      (fun acc reg ->
        acc +. Module_library.register_clock_cap ~width:(Binding.reg_width b reg))
      0. (Binding.reg_ids b)
  in
  (* Charge a network access: the selected leaf's value propagates along its
     path to the root; every mux on the path may switch. *)
  let charge_network (access : access) width bits =
    match access with
    | None -> ()
    | Some (st, path) ->
      for i = 0 to Array.length path - 1 do
        let sw = switch st.ns_mux_values path.(i) ~first:0. width bits in
        net_energy.(st.ns_id) <- net_energy.(st.ns_id) +. (sw *. st.ns_cap)
      done
  in
  (* A chain position's glitch factor, looked up rather than recomputed so
     the per-firing path handles no boxed float. *)
  let glitch =
    let deepest = ref 0 in
    Stg.iter_firings stg ~f:(fun _ fr -> deepest := max !deepest fr.Stg.f_chain_pos);
    Array.init (!deepest + 1) Module_library.glitch_factor
  in
  let on_firing ~pass:_ ~state:_ ~firing ~inputs ~output =
    let nid = firing.Stg.f_node in
    let p = plans.(nid) in
    if p.fu >= 0 then begin
      (* Per-bit Hamming of the operands to the FU's last ones, over the
         ports both have at equal widths; a first activation charges half
         the bits on average. *)
      let base = p.fu * max_ports and ports = Array.length inputs in
      let first = fu_last.l_width.(base) = 0 in
      let bits = ref 0 and diff = ref 0 in
      for q = 0 to max_ports - 1 do
        let width = if q < ports then p.in_widths.(q) else 0 in
        let v = if q < ports then inputs.(q) else 0 in
        if width > 0 && fu_last.l_width.(base + q) = width then begin
          bits := !bits + width;
          diff := !diff + Bitvec.popcount_bits (fu_last.l_bits.(base + q) lxor v)
        end;
        fu_last.l_width.(base + q) <- width;
        fu_last.l_bits.(base + q) <- v
      done;
      let sw =
        if first then 0.5 else if !bits = 0 then 0. else float_of_int !diff /. float_of_int !bits
      in
      e.e_fu <- e.e_fu +. (p.fu_cap *. sw *. glitch.(firing.Stg.f_chain_pos));
      for port = 0 to Array.length p.ports - 1 do
        charge_network p.ports.(port) p.in_widths.(port) inputs.(port)
      done
    end;
    (match p.sel_cap with
    | Some cap -> e.e_sel <- e.e_sel +. (cap *. switch sel_last nid ~first:0.5 p.width output)
    | None -> ());
    (* Register write (and its steering network). *)
    e.e_reg <- e.e_reg +. (p.write_cap *. switch reg_last p.reg ~first:0.5 p.width output);
    charge_network
      (if firing.Stg.f_phase = Stg.Merge_init then p.write_init else p.write)
      p.width output;
    (* Wiring: fanout of the produced value. *)
    e.e_wire <- e.e_wire +. p.wire
  in
  let on_cycle ~pass:_ ~state =
    let code_toggles =
      if !prev_state >= 0 then Impact_rtl.Controller.code_distance controller !prev_state state
      else 0
    in
    prev_state := state;
    e.e_ctrl <-
      e.e_ctrl +. decode_per_cycle
      +. (Module_library.controller_ff_cap *. float_of_int code_toggles);
    e.e_clock <- e.e_clock +. clock_per_cycle
  in
  let observer = { Rtl_sim.on_cycle; on_firing } in
  let result = Rtl_sim.simulate ~observer program stg b ~workload in
  let cycles = float_of_int (max result.Rtl_sim.total_cycles 1) in
  let net_energy = Array.fold_left ( +. ) 0. net_energy in
  let breakdown =
    {
      Breakdown.p_fu = e.e_fu /. cycles;
      p_reg = e.e_reg /. cycles;
      p_mux = (e.e_sel +. net_energy) /. cycles;
      p_ctrl = e.e_ctrl /. cycles;
      p_clock = e.e_clock /. cycles;
      p_wire = e.e_wire /. cycles;
    }
  in
  {
    m_breakdown = breakdown;
    m_power = Breakdown.total breakdown *. Vdd.power_factor vdd;
    m_vdd = vdd;
    m_mean_cycles = result.Rtl_sim.mean_cycles;
    m_outputs = result.Rtl_sim.pass_outputs;
  }
