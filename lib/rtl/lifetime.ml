module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Stg = Impact_sched.Stg
module Iset = Set.Make (Int)

(* Values are node outputs (ids 0..nn-1) and primary inputs (ids nn..nv-1).
   Interference is one bit per unordered pair of distinct values: pair
   (lo, hi) with lo < hi sits at bit hi*(hi-1)/2 + lo, so the estimator's
   per-schedule memo entry is a few dozen bytes. *)
type t = {
  nn : int;
  nv : int;
  inputs : (string * int) list;  (* the program's own list, shared *)
  interferes : Bytes.t;
}

let bit lo hi = (hi * (hi - 1) / 2) + lo

let input_id t name =
  let rec find i = function
    | [] -> None
    | (n, _) :: _ when n = name -> Some (t.nn + i)
    | _ :: rest -> find (i + 1) rest
  in
  find 0 t.inputs

let ports_of_phase (n : Ir.node) phase =
  match phase with
  | Stg.Normal -> List.init (Array.length n.Ir.inputs) Fun.id
  | Stg.Merge_init -> [ 0 ]
  | Stg.Merge_back -> [ 1 ]

let analyse (program : Graph.program) (stg : Stg.t) =
  let g = program.Graph.graph in
  let nn = Graph.node_count g in
  let inputs = program.Graph.prog_inputs in
  let nv = nn + List.length inputs in
  let t =
    { nn; nv; inputs; interferes = Bytes.make (((nv * (nv - 1) / 2) + 7) / 8) '\000' }
  in
  let value_of_edge eid =
    match (Graph.edge g eid).Ir.source with
    | Ir.From_node nid -> Some nid
    | Ir.Primary_input name -> input_id t name
    | Ir.Const _ -> None
  in
  let n_states = Array.length stg.Stg.states in
  let defs = Array.make n_states Iset.empty in
  let uses = Array.make n_states Iset.empty in
  for s = 0 to n_states - 1 do
    List.iter
      (fun fr ->
        let n = Graph.node g fr.Stg.f_node in
        defs.(s) <- Iset.add fr.Stg.f_node defs.(s);
        List.iter
          (fun port ->
            match value_of_edge n.Ir.inputs.(port) with
            | Some v -> uses.(s) <- Iset.add v uses.(s)
            | None -> ())
          (ports_of_phase n fr.Stg.f_phase);
        (* Guarded firings read their condition bits. *)
        List.iter
          (fun a ->
            match value_of_edge a.Guard.cond_edge with
            | Some v -> uses.(s) <- Iset.add v uses.(s)
            | None -> ())
          (Guard.atoms fr.Stg.f_guard))
      (Stg.firings_of stg s);
    (* Transition guards read condition registers. *)
    List.iter
      (fun { Stg.t_guard; _ } ->
        List.iter
          (fun a ->
            match value_of_edge a.Guard.cond_edge with
            | Some v -> uses.(s) <- Iset.add v uses.(s)
            | None -> ())
          (Guard.atoms t_guard))
      stg.Stg.succs.(s)
  done;
  (* Outputs are read externally after the pass completes; primary inputs
     are defined at entry (model: defined in the entry state). *)
  List.iter
    (fun (_, nid) ->
      uses.(stg.Stg.exit_id) <- Iset.add nid uses.(stg.Stg.exit_id))
    program.Graph.prog_outputs;
  List.iteri (fun i _ -> defs.(stg.Stg.entry) <- Iset.add (nn + i) defs.(stg.Stg.entry)) inputs;
  (* Backward liveness fixpoint. *)
  let live_in = Array.make n_states Iset.empty in
  let live_out = Array.make n_states Iset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = n_states - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc { Stg.t_dst; _ } -> Iset.union acc live_in.(t_dst))
          Iset.empty stg.Stg.succs.(s)
      in
      let inp = Iset.union uses.(s) (Iset.diff out defs.(s)) in
      if not (Iset.equal out live_out.(s)) || not (Iset.equal inp live_in.(s)) then begin
        live_out.(s) <- out;
        live_in.(s) <- inp;
        changed := true
      end
    done
  done;
  let mark a b =
    if a <> b then begin
      let i = bit (min a b) (max a b) in
      Bytes.set_uint8 t.interferes (i lsr 3)
        (Bytes.get_uint8 t.interferes (i lsr 3) lor (1 lsl (i land 7)))
    end
  in
  for s = 0 to n_states - 1 do
    Iset.iter
      (fun d ->
        Iset.iter (fun l -> mark d l) live_out.(s);
        (* Simultaneous definitions clash unless identical. *)
        Iset.iter (fun d2 -> mark d d2) defs.(s);
        (* A value used in this state must survive the state's writes. *)
        Iset.iter (fun u -> mark d u) uses.(s))
      defs.(s)
  done;
  t

(* Ids outside the analysis never interfere. *)
let compatible t a b =
  a = b || a < 0 || b < 0 || a >= t.nv || b >= t.nv
  ||
  let i = bit (min a b) (max a b) in
  Bytes.get_uint8 t.interferes (i lsr 3) land (1 lsl (i land 7)) = 0

let values_can_share t v w = compatible t v w

let input_can_share t name v =
  match input_id t name with
  | Some vid -> compatible t vid v
  | None -> false

let regs_can_share t b r1 r2 =
  let members reg =
    Binding.reg_values b reg
    @ List.filter_map (input_id t) (Binding.reg_input_names b reg)
  in
  let m1 = members r1 and m2 = members r2 in
  List.for_all (fun a -> List.for_all (fun b -> compatible t a b) m2) m1
