module Bitvec = Impact_util.Bitvec
module Stg = Impact_sched.Stg
module Diagnostic = Impact_util.Diagnostic

let issue ~rule where fmt = Diagnostic.error ~rule ~path:where fmt

let key_name = function
  | Datapath.K_node nid -> Printf.sprintf "n%d" nid
  | Datapath.K_const v -> Printf.sprintf "const %s" (Bitvec.to_string v)
  | Datapath.K_input name -> Printf.sprintf "input %s" name

let port_name = function
  | Datapath.P_fu_input (fu, port) -> Printf.sprintf "fu%d port %d" fu port
  | Datapath.P_reg_write reg -> Printf.sprintf "reg %d write" reg

(* Recompute the fan-in set each port requires, exactly as [Datapath.build]
   derives it from the binding: the distinct operand keys arriving at a
   shared unit port, and the distinct write keys (plus latched inputs) of a
   register. *)
let expected_fanins b =
  let module Ir = Impact_cdfg.Ir in
  let module Graph = Impact_cdfg.Graph in
  let g = Binding.graph b in
  let dedup keys =
    let seen = Hashtbl.create 8 in
    List.filter (fun k ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      keys
  in
  let fanins = ref [] in
  List.iter
    (fun fu ->
      let ops = Binding.fu_ops b fu in
      let max_arity =
        List.fold_left
          (fun acc nid -> max acc (Array.length (Graph.node g nid).Ir.inputs))
          0 ops
      in
      for port = 0 to max_arity - 1 do
        let keys =
          ops
          |> List.filter_map (fun nid ->
                 if port < Array.length (Graph.node g nid).Ir.inputs then
                   Some (Datapath.operand_key b nid ~port)
                 else None)
          |> dedup
        in
        fanins := (Datapath.P_fu_input (fu, port), Binding.fu_width b fu, keys) :: !fanins
      done)
    (Binding.fu_ids b);
  List.iter
    (fun reg ->
      let keys =
        List.concat_map (Datapath.write_keys b) (Binding.reg_values b reg)
        @ List.map
            (fun name -> Datapath.K_input name)
            (Binding.reg_input_names b reg)
        |> dedup
      in
      fanins := (Datapath.P_reg_write reg, Binding.reg_width b reg, keys) :: !fanins)
    (Binding.reg_ids b);
  !fanins

let rec shape_leaves acc = function
  | Muxnet.L i -> i :: acc
  | Muxnet.N (l, r) -> shape_leaves (shape_leaves acc l) r

let network_issues dp =
  let b = Datapath.binding dp in
  let expected = expected_fanins b in
  let issues = ref [] in
  let emit d = issues := d :: !issues in
  (* Each port has at most one driving network. *)
  let nets_by_port = Hashtbl.create 16 in
  Array.iter
    (fun (net : Datapath.network) ->
      if Hashtbl.mem nets_by_port net.Datapath.net_port then
        emit
          (issue ~rule:"rtl/net-driver"
             (port_name net.Datapath.net_port)
             "two networks drive this port");
      Hashtbl.replace nets_by_port net.Datapath.net_port net)
    (Datapath.networks dp);
  (* Every multi-source port is steered; single-source ports are direct wires. *)
  List.iter
    (fun (port, width, keys) ->
      let where = port_name port in
      match (Hashtbl.find_opt nets_by_port port, keys) with
      | None, (_ :: _ :: _) ->
        emit
          (issue ~rule:"rtl/missing-network" where
             "%d distinct sources but no steering network" (List.length keys))
      | Some _, ([] | [ _ ]) ->
        emit
          (issue ~rule:"rtl/net-driver" where
             "mux network on a port with %d source(s)" (List.length keys))
      | None, _ -> ()
      | Some net, _ ->
        if net.Datapath.net_width <> width then
          emit
            (issue ~rule:"rtl/net-width" where
               "network is %d bits wide but the port is %d"
               net.Datapath.net_width width);
        (* Leaf keys must exactly cover the fan-in set. *)
        let leaf_keys = Array.to_list net.Datapath.net_keys in
        List.iter
          (fun k ->
            if not (List.mem k leaf_keys) then
              emit
                (issue ~rule:"rtl/fanin-cover" where "fan-in %s has no leaf"
                   (key_name k)))
          keys;
        List.iter
          (fun k ->
            if not (List.mem k keys) then
              emit
                (issue ~rule:"rtl/fanin-cover" where
                   "leaf %s is not in the port's fan-in set" (key_name k)))
          leaf_keys;
        (* The tree must be a permutation tree over exactly those leaves. *)
        let n = Array.length net.Datapath.net_keys in
        let leaves =
          List.sort Int.compare (shape_leaves [] (Muxnet.shape net.Datapath.net))
        in
        if Muxnet.n_leaves net.Datapath.net <> n then
          emit
            (issue ~rule:"rtl/mux-shape" where
               "tree has %d leaves for %d fan-in signals"
               (Muxnet.n_leaves net.Datapath.net) n)
        else if leaves <> List.init n Fun.id then
          emit
            (issue ~rule:"rtl/mux-shape" where
               "tree leaves are not a permutation of the fan-in set"))
    expected;
  (* A network whose port no longer exists in the binding. *)
  let known = Hashtbl.create 16 in
  List.iter (fun (port, _, _) -> Hashtbl.replace known port ()) expected;
  Array.iter
    (fun (net : Datapath.network) ->
      if not (Hashtbl.mem known net.Datapath.net_port) then
        emit
          (issue ~rule:"rtl/net-driver"
             (port_name net.Datapath.net_port)
             "network drives a port that does not exist in the binding"))
    (Datapath.networks dp);
  !issues

let controller_issues (stg : Stg.t) =
  let ctrl = Controller.synthesize stg Controller.Binary in
  let n = Array.length stg.Stg.states in
  let bits = Controller.state_bits ctrl in
  let needed =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    max 1 (go 1)
  in
  let issues = ref [] in
  if bits < needed then
    issues :=
      issue ~rule:"rtl/ctrl-state-bits" "controller"
        "%d state bits cannot encode %d states" bits n
      :: !issues;
  let seen = Hashtbl.create 16 in
  for s = 0 to n - 1 do
    let code = Controller.code ctrl s in
    if Bitvec.width code <> bits then
      issues :=
        issue ~rule:"rtl/ctrl-code-width"
          (Printf.sprintf "controller/state %d" s)
          "code is %d bits, state register is %d" (Bitvec.width code) bits
        :: !issues;
    (match Hashtbl.find_opt seen (Bitvec.bits code) with
    | Some s' ->
      issues :=
        issue ~rule:"rtl/ctrl-code-clash"
          (Printf.sprintf "controller/state %d" s)
          "shares code %s with state %d" (Bitvec.to_string code) s'
        :: !issues
    | None -> Hashtbl.replace seen (Bitvec.bits code) s)
  done;
  !issues

let check stg dp = network_issues dp @ controller_issues stg
