module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Bitvec = Impact_util.Bitvec

type firing_tag = Tag_normal | Tag_merge_init | Tag_merge_back

type event = {
  ev_inputs : Bitvec.t array;
  ev_output : Bitvec.t;
  ev_pass : int;
  ev_seq : int;
  ev_tag : firing_tag;
}

(* The firing log of one node: [count] firings of [stride] ints each (the
   output's bits, each input's bits, then pass, seq and tag), in chunks of
   [chunk_events] firings.  A chunk is allocated full size and never copied
   while the run grows; the run's end trims the last one. *)
type log = { stride : int; mutable count : int; mutable chunks : int array array }

let chunk_bits = 10
let chunk_events = 1 lsl chunk_bits

type run = {
  program : Graph.program;
  logs : log array;
  widths : int array array;  (* node id -> output width, then each input port's *)
  tag_counts : int array;  (* [3 * node + tag index] -> firings with that tag *)
  passes : int;
  profile : Profile.t;
  pass_outputs : (string * Bitvec.t) list array;
  firings_total : int;
  edge_consumer : (Ir.node_id * int) option array;
      (* edge id -> first (consumer node, input port) in canonical node/port
         order, precomputed once so [edge_values] on a [Primary_input] never
         rescans the graph *)
}

exception Stuck of string

(* --- The operator kernel ---------------------------------------------------- *)

(* The width [kind] produces from operands of widths [ws] (a [width]-bit
   node's for [Op_resize]).
   @raise Invalid_argument where the Bitvec operation refuses the operands. *)
let result_width kind ~width ws =
  let agree i j =
    if ws.(i) <> ws.(j) then
      invalid_arg (Printf.sprintf "Bitvec: width mismatch %d vs %d" ws.(i) ws.(j));
    ws.(i)
  in
  match kind with
  | Ir.Op_add | Ir.Op_sub | Ir.Op_mul | Ir.Op_and | Ir.Op_or | Ir.Op_xor | Ir.Op_loop_merge ->
    agree 0 1
  | Ir.Op_lt | Ir.Op_le | Ir.Op_gt | Ir.Op_ge | Ir.Op_eq | Ir.Op_ne ->
    ignore (agree 0 1);
    1
  | Ir.Op_not | Ir.Op_shl | Ir.Op_shr | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> ws.(0)
  | Ir.Op_resize -> width
  | Ir.Op_select -> agree 1 2

let shift_amount b = if b > Bitvec.max_width then Bitvec.max_width else b

let eval kind ~width ~in_width a b c =
  let m = Bitvec.mask width in
  match kind with
  | Ir.Op_add -> (a + b) land m
  | Ir.Op_sub -> (a - b) land m
  | Ir.Op_mul -> a * b land m
  | Ir.Op_lt -> Bool.to_int (Bitvec.signed ~width:in_width a < Bitvec.signed ~width:in_width b)
  | Ir.Op_le -> Bool.to_int (Bitvec.signed ~width:in_width a <= Bitvec.signed ~width:in_width b)
  | Ir.Op_gt -> Bool.to_int (Bitvec.signed ~width:in_width a > Bitvec.signed ~width:in_width b)
  | Ir.Op_ge -> Bool.to_int (Bitvec.signed ~width:in_width a >= Bitvec.signed ~width:in_width b)
  | Ir.Op_eq -> Bool.to_int (a = b)
  | Ir.Op_ne -> Bool.to_int (a <> b)
  | Ir.Op_and -> a land b
  | Ir.Op_or -> a lor b
  | Ir.Op_xor -> a lxor b
  | Ir.Op_not -> lnot a land m
  | Ir.Op_shl ->
    let n = shift_amount b in
    if n >= width then 0 else (a lsl n) land m
  | Ir.Op_shr -> (Bitvec.signed ~width:in_width a asr min (shift_amount b) (width - 1)) land m
  | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> a
  | Ir.Op_resize -> Bitvec.signed ~width:in_width a land m
  | Ir.Op_select -> if a <> 0 then b else c
  | Ir.Op_loop_merge -> invalid_arg "Sim.eval: a loop merge fires through its phase"

(* --- The simulator ----------------------------------------------------------- *)

type state = {
  g : Graph.t;
  nodes : Ir.node array;
  in_width : int array;  (* per node: its first operand's width *)
  producer : int array;  (* per edge: the producing node, or -1 *)
  in_bits : int array;  (* per edge: a constant's bits, an input's this pass *)
  in_set : bool array;
  value : int array;  (* per node: the last output's bits *)
  fired : bool array;
  logs : log array;
  tag_counts : int array;  (* [3 * node + tag index] -> firings with that tag *)
  cond_true : int array;  (* per edge *)
  cond_false : int array;
  mutable cond_order : Ir.edge_id list;  (* in first evaluation order, reversed *)
  profile : Profile.t;
  mutable pass : int;
  mutable seq : int;
  mutable outputs : (string * Bitvec.t) list;
  mutable firings : int;
  max_loop_iters : int;
}

(* An edge's current value.  Before its producer first fires, a [stale]
   read is zero: a mux's unselected input is electrically present but
   semantically inert.  Any other such read is an error. *)
let read st eid ~stale ~who =
  let nid = st.producer.(eid) in
  if nid < 0 then
    if st.in_set.(eid) then st.in_bits.(eid)
    else
      match (Graph.edge st.g eid).Ir.source with
      | Ir.Primary_input name -> invalid_arg (Printf.sprintf "Sim: missing input %s" name)
      | Ir.Const _ | Ir.From_node _ -> assert false
  else if st.fired.(nid) then st.value.(nid)
  else if stale then 0
  else
    failwith (Printf.sprintf "Sim: node %s reads edge e%d before any producer fired" who eid)

let tag_index = function Tag_normal -> 0 | Tag_merge_init -> 1 | Tag_merge_back -> 2

(* One firing, tagged by [tag_index]: a merge passes on its init value
   (port 0) on loop entry and its loop-back value (port 1) after each
   iteration.  The operands are read straight into the node's next log
   row, which is in the last chunk, allocated every [chunk_events]
   firings. *)
let fire st tag nid =
  let n = st.nodes.(nid) in
  let ins = n.Ir.inputs and who = n.Ir.n_name and kind = n.Ir.kind in
  let l = st.logs.(nid) in
  let j = l.count land (chunk_events - 1) in
  if j = 0 then l.chunks <- Array.append l.chunks [| Array.make (chunk_events * l.stride) 0 |];
  let chunk = l.chunks.(l.count lsr chunk_bits) and row = j * l.stride in
  let ports = Array.length ins in
  (* A merge's inputs and a Sel's branch inputs may legitimately be stale. *)
  let sel = match kind with Ir.Op_select -> true | _ -> false in
  for p = 0 to ports - 1 do
    chunk.(row + 1 + p) <- read st ins.(p) ~stale:(tag > 0 || (sel && p > 0)) ~who
  done;
  let a = chunk.(row + 1) in
  let output =
    if tag > 0 then read st ins.(tag - 1) ~stale:false ~who
    else
      eval kind ~width:n.Ir.n_width ~in_width:st.in_width.(nid) a
        (if ports > 1 then chunk.(row + 2) else 0)
        (if ports > 2 then chunk.(row + 3) else 0)
  in
  chunk.(row) <- output;
  chunk.(row + ports + 1) <- st.pass;
  chunk.(row + ports + 2) <- st.seq;
  chunk.(row + ports + 3) <- tag;
  l.count <- l.count + 1;
  st.tag_counts.((3 * nid) + tag) <- st.tag_counts.((3 * nid) + tag) + 1;
  st.value.(nid) <- output;
  st.fired.(nid) <- true;
  st.seq <- st.seq + 1;
  st.firings <- st.firings + 1;
  match kind with
  | Ir.Op_output name ->
    let v = Bitvec.make ~width:n.Ir.n_width output in
    st.outputs <- (name, v) :: List.remove_assoc name st.outputs
  | _ -> ()

let record_cond st eid c =
  if st.cond_true.(eid) + st.cond_false.(eid) = 0 then st.cond_order <- eid :: st.cond_order;
  if c then st.cond_true.(eid) <- st.cond_true.(eid) + 1
  else st.cond_false.(eid) <- st.cond_false.(eid) + 1

(* The region walk recurses over lists directly: no closure per region or
   loop iteration. *)
let rec fire_all st tag = function
  | [] -> ()
  | nid :: rest ->
    fire st tag nid;
    fire_all st tag rest

let rec exec_region st region =
  match region with
  | Ir.R_ops ids -> fire_all st 0 ids
  | Ir.R_seq rs -> exec_regions st rs
  | Ir.R_if { cond_edge; then_r; else_r; sels } ->
    let c = read st cond_edge ~stale:false ~who:"if" <> 0 in
    record_cond st cond_edge c;
    exec_region st (if c then then_r else else_r);
    fire_all st 0 sels
  | Ir.R_loop { loop; merges; cond_r; cond_edge; body; elps } ->
    fire_all st 1 merges;
    iterate st ~loop ~merges ~cond_r ~cond_edge ~body ~elps 0

and exec_regions st = function
  | [] -> ()
  | r :: rest ->
    exec_region st r;
    exec_regions st rest

and iterate st ~loop ~merges ~cond_r ~cond_edge ~body ~elps count =
  exec_region st cond_r;
  let c = read st cond_edge ~stale:false ~who:"while" <> 0 in
  record_cond st cond_edge c;
  if c then begin
    if count >= st.max_loop_iters then
      raise (Stuck (Printf.sprintf "loop %d exceeded %d iterations" loop st.max_loop_iters));
    exec_region st body;
    fire_all st 2 merges;
    iterate st ~loop ~merges ~cond_r ~cond_edge ~body ~elps (count + 1)
  end
  else begin
    Profile.record_loop_exit st.profile loop ~iterations:count;
    fire_all st 0 elps
  end

(* First consumer of every edge, in canonical order: nodes in graph order,
   input ports in ascending order within a node.  Built once per run. *)
let edge_consumers g =
  let consumers = Array.make (Graph.edge_count g) None in
  Graph.iter_nodes g ~f:(fun n ->
      Array.iteri
        (fun port eid ->
          if consumers.(eid) = None then consumers.(eid) <- Some (n.Ir.n_id, port))
        n.Ir.inputs);
  consumers

let static_widths g =
  Array.init (Graph.node_count g) (fun nid ->
      let n = Graph.node g nid in
      Array.append [| n.Ir.n_width |]
        (Array.map (fun eid -> (Graph.edge g eid).Ir.e_width) n.Ir.inputs))

(* Widths are static per node and port ([Validate.width_issues]), so the log
   keeps bits only.  A program whose values would break this is refused
   before the run, not re-widthed during it. *)
let check_widths g nodes =
  Array.iter
    (fun (n : Ir.node) ->
      let refuse got want =
        invalid_arg
          (Printf.sprintf "Sim: node %s carries a %d-bit value where the graph says %d"
             n.Ir.n_name got want)
      in
      let operand eid =
        let e = Graph.edge g eid in
        Bitvec.check_width e.Ir.e_width;
        let got =
          match e.Ir.source with
          | Ir.Const v -> Bitvec.width v
          | Ir.Primary_input _ -> e.Ir.e_width
          | Ir.From_node m -> nodes.(m).Ir.n_width
        in
        if got <> e.Ir.e_width then refuse got e.Ir.e_width;
        got
      in
      let ws = Array.map operand n.Ir.inputs in
      Bitvec.check_width n.Ir.n_width;
      let w = result_width n.Ir.kind ~width:n.Ir.n_width ws in
      if w <> n.Ir.n_width then refuse w n.Ir.n_width)
    nodes

let simulate ?(max_loop_iters = 100_000) (program : Graph.program) ~workload =
  let g = program.Graph.graph in
  let nn = Graph.node_count g and ne = Graph.edge_count g in
  let nodes = Array.init nn (Graph.node g) in
  check_widths g nodes;
  let producer = Array.make ne (-1) and in_bits = Array.make ne 0 in
  let in_set = Array.make ne false and inputs = ref [] in
  for eid = ne - 1 downto 0 do
    match (Graph.edge g eid).Ir.source with
    | Ir.Const v ->
      in_bits.(eid) <- Bitvec.bits v;
      in_set.(eid) <- true
    | Ir.Primary_input name ->
      inputs := (eid, name, Bitvec.mask (Graph.edge g eid).Ir.e_width) :: !inputs
    | Ir.From_node nid -> producer.(eid) <- nid
  done;
  let st =
    {
      g;
      nodes;
      in_width = Array.map (fun n -> (Graph.edge g n.Ir.inputs.(0)).Ir.e_width) nodes;
      producer;
      in_bits;
      in_set;
      value = Array.make nn 0;
      fired = Array.make nn false;
      logs =
        Array.map
          (fun n -> { stride = Array.length n.Ir.inputs + 4; count = 0; chunks = [||] })
          nodes;
      tag_counts = Array.make (3 * nn) 0;
      cond_true = Array.make ne 0;
      cond_false = Array.make ne 0;
      cond_order = [];
      profile = Profile.create ();
      pass = 0;
      seq = 0;
      outputs = [];
      firings = 0;
      max_loop_iters;
    }
  in
  let passes = List.length workload in
  let pass_outputs = Array.make (max passes 1) [] in
  List.iteri
    (fun pass bindings ->
      st.pass <- pass;
      st.seq <- 0;
      List.iter
        (fun (eid, name, mask) ->
          let v = List.assoc_opt name bindings in
          st.in_set.(eid) <- Option.is_some v;
          st.in_bits.(eid) <- Option.value v ~default:0 land mask)
        !inputs;
      st.outputs <- [];
      exec_region st program.Graph.top;
      pass_outputs.(pass) <- List.rev st.outputs)
    workload;
  List.iter
    (fun eid ->
      Profile.record_conds st.profile eid ~trues:st.cond_true.(eid)
        ~falses:st.cond_false.(eid))
    (List.rev st.cond_order);
  Array.iter
    (fun l ->
      let j = l.count land (chunk_events - 1) and last = Array.length l.chunks - 1 in
      if j > 0 then l.chunks.(last) <- Array.sub l.chunks.(last) 0 (j * l.stride))
    st.logs;
  {
    program;
    logs = st.logs;
    widths = static_widths g;
    tag_counts = st.tag_counts;
    passes;
    profile = st.profile;
    pass_outputs;
    firings_total = st.firings;
    edge_consumer = edge_consumers g;
  }

(* --- Index accessors ------------------------------------------------------- *)

let cell l i col = l.chunks.(i lsr chunk_bits).(((i land (chunk_events - 1)) * l.stride) + col)
let count (run : run) nid = run.logs.(nid).count
let ports (run : run) nid = run.logs.(nid).stride - 4
let output (run : run) nid i = cell run.logs.(nid) i 0
let pass (run : run) nid i = cell run.logs.(nid) i (ports run nid + 1)
let seq (run : run) nid i = cell run.logs.(nid) i (ports run nid + 2)
let tags = [| Tag_normal; Tag_merge_init; Tag_merge_back |]
let tag (run : run) nid i = tags.(cell run.logs.(nid) i (ports run nid + 3))
let tag_count (run : run) nid t = run.tag_counts.((3 * nid) + tag_index t)
let output_width (run : run) nid = run.widths.(nid).(0)
let input_width (run : run) nid port = run.widths.(nid).(port + 1)

let event (run : run) nid i =
  let bv col = Bitvec.make ~width:run.widths.(nid).(col) (cell run.logs.(nid) i col) in
  {
    ev_inputs = Array.init (ports run nid) (fun port -> bv (port + 1));
    ev_output = bv 0;
    ev_pass = pass run nid i;
    ev_seq = seq run nid i;
    ev_tag = tag run nid i;
  }

let node_events run nid = Array.init (count run nid) (event run nid)

let edge_values (run : run) eid =
  let e = Graph.edge run.program.Graph.graph eid in
  match e.Ir.source with
  | Ir.From_node nid -> Array.map (fun ev -> ev.ev_output) (node_events run nid)
  | Ir.Const v -> Array.make run.passes v
  | Ir.Primary_input _ -> (
    (* Primary input values are not retained per pass in the event log;
       replay a consumer's recorded operand instead. *)
    match run.edge_consumer.(eid) with
    | Some (nid, port) -> Array.map (fun ev -> ev.ev_inputs.(port)) (node_events run nid)
    | None -> [||])
