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

(* An edge's value source, resolved once per simulation. *)
type source = Src_const of Bitvec.t | Src_input of string * int | Src_node of Ir.node_id

type state = {
  g : Graph.t;
  sources : source array;  (* per edge *)
  widths : int array array;
  node_out : Bitvec.t option array;
  logs : log array;
  profile : Profile.t;
  mutable pass : int;
  mutable seq : int;
  mutable inputs : (string * int) list;
  mutable outputs : (string * Bitvec.t) list;
  mutable firings : int;
  max_loop_iters : int;
}

(* An edge's current value.  Before its producer first fires, a [stale]
   read is zero: a mux's unselected input is electrically present but
   semantically inert.  Any other such read is an error. *)
let eval_edge st eid ~stale ~who =
  match st.sources.(eid) with
  | Src_const v -> v
  | Src_input (name, width) -> (
    match List.assoc_opt name st.inputs with
    | Some v -> Bitvec.make ~width v
    | None -> invalid_arg (Printf.sprintf "Sim: missing input %s" name))
  | Src_node nid -> (
    match st.node_out.(nid) with
    | Some v -> v
    | None when stale -> Bitvec.zero ~width:(Graph.edge st.g eid).Ir.e_width
    | None ->
      failwith
        (Printf.sprintf "Sim: node %s reads edge e%d before any producer fired" who eid))

let shift_amount v = min (Bitvec.to_unsigned v) Bitvec.max_width

(* [Op_resize] needs the node's target width, so it is special-cased in the
   callers; [compute] handles every width-preserving kind. *)
let compute kind inputs =
  let a () = inputs.(0) and b () = inputs.(1) in
  match kind with
  | Ir.Op_add -> Bitvec.add (a ()) (b ())
  | Ir.Op_sub -> Bitvec.sub (a ()) (b ())
  | Ir.Op_mul -> Bitvec.mul (a ()) (b ())
  | Ir.Op_lt -> Bitvec.of_bool (Bitvec.lt (a ()) (b ()))
  | Ir.Op_le -> Bitvec.of_bool (Bitvec.le (a ()) (b ()))
  | Ir.Op_gt -> Bitvec.of_bool (Bitvec.gt (a ()) (b ()))
  | Ir.Op_ge -> Bitvec.of_bool (Bitvec.ge (a ()) (b ()))
  | Ir.Op_eq -> Bitvec.of_bool (Bitvec.equal (a ()) (b ()))
  | Ir.Op_ne -> Bitvec.of_bool (not (Bitvec.equal (a ()) (b ())))
  | Ir.Op_and -> Bitvec.logand (a ()) (b ())
  | Ir.Op_or -> Bitvec.logor (a ()) (b ())
  | Ir.Op_xor -> Bitvec.logxor (a ()) (b ())
  | Ir.Op_not -> Bitvec.lognot (a ())
  | Ir.Op_shl -> Bitvec.shift_left (a ()) (shift_amount (b ()))
  | Ir.Op_shr -> Bitvec.shift_right_arith (a ()) (shift_amount (b ()))
  | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> a ()
  | Ir.Op_resize -> a () (* callers resize to the node width *)
  | Ir.Op_select -> if Bitvec.to_bool (a ()) then b () else inputs.(2)
  | Ir.Op_loop_merge -> assert false (* fired through [fire_merge] *)

let tag_index = function Tag_normal -> 0 | Tag_merge_init -> 1 | Tag_merge_back -> 2

(* Widths are static per node and port ([Validate.width_issues]), so the log
   keeps bits only; a value that breaks this is refused, not re-widthed. *)
let bits_at st nid col v =
  if Bitvec.width v <> st.widths.(nid).(col) then
    invalid_arg
      (Printf.sprintf "Sim: node %s carries a %d-bit value where the graph says %d"
         (Graph.node st.g nid).Ir.n_name (Bitvec.width v) st.widths.(nid).(col));
  Bitvec.bits v

let record ?(tag = Tag_normal) st nid inputs output =
  st.node_out.(nid) <- Some output;
  let l = st.logs.(nid) in
  let j = l.count land (chunk_events - 1) in
  if j = 0 then l.chunks <- Array.append l.chunks [| Array.make (chunk_events * l.stride) 0 |];
  let chunk = l.chunks.(l.count lsr chunk_bits) and base = j * l.stride in
  let ports = Array.length inputs in
  chunk.(base) <- bits_at st nid 0 output;
  for p = 0 to ports - 1 do
    chunk.(base + 1 + p) <- bits_at st nid (p + 1) inputs.(p)
  done;
  chunk.(base + ports + 1) <- st.pass;
  chunk.(base + ports + 2) <- st.seq;
  chunk.(base + ports + 3) <- tag_index tag;
  l.count <- l.count + 1;
  st.seq <- st.seq + 1;
  st.firings <- st.firings + 1

let fire_normal st nid =
  let n = Graph.node st.g nid in
  let ins = n.Ir.inputs and who = n.Ir.n_name in
  let inputs = Array.make (Array.length ins) (eval_edge st ins.(0) ~stale:false ~who) in
  for port = 1 to Array.length ins - 1 do
    (* A Sel's unselected branch input may legitimately be stale. *)
    inputs.(port) <- eval_edge st ins.(port) ~stale:(n.Ir.kind = Ir.Op_select) ~who
  done;
  let output =
    match n.Ir.kind with
    | Ir.Op_resize -> Bitvec.resize ~width:n.Ir.n_width inputs.(0)
    | kind -> compute kind inputs
  in
  record st nid inputs output;
  match n.Ir.kind with
  | Ir.Op_output name -> st.outputs <- (name, output) :: List.remove_assoc name st.outputs
  | _ -> ()

type merge_phase = Merge_init | Merge_back

let fire_merge st phase nid =
  let n = Graph.node st.g nid in
  let ins = n.Ir.inputs and who = n.Ir.n_name in
  let inputs = [| eval_edge st ins.(0) ~stale:true ~who; eval_edge st ins.(1) ~stale:true ~who |] in
  match phase with
  | Merge_init -> record ~tag:Tag_merge_init st nid inputs (eval_edge st ins.(0) ~stale:false ~who)
  | Merge_back -> record ~tag:Tag_merge_back st nid inputs (eval_edge st ins.(1) ~stale:false ~who)

let rec exec_region st region =
  match region with
  | Ir.R_ops ids -> List.iter (fire_normal st) ids
  | Ir.R_seq rs -> List.iter (exec_region st) rs
  | Ir.R_if { cond_edge; then_r; else_r; sels } ->
    let c = Bitvec.to_bool (eval_edge st cond_edge ~stale:false ~who:"if") in
    Profile.record_cond st.profile cond_edge c;
    exec_region st (if c then then_r else else_r);
    List.iter (fire_normal st) sels
  | Ir.R_loop { loop; merges; cond_r; cond_edge; body; elps } ->
    List.iter (fire_merge st Merge_init) merges;
    let rec iterate count =
      exec_region st cond_r;
      let c = Bitvec.to_bool (eval_edge st cond_edge ~stale:false ~who:"while") in
      Profile.record_cond st.profile cond_edge c;
      if c then begin
        if count >= st.max_loop_iters then
          raise
            (Stuck
               (Printf.sprintf "loop %d exceeded %d iterations" loop st.max_loop_iters));
        exec_region st body;
        List.iter (fire_merge st Merge_back) merges;
        iterate (count + 1)
      end
      else begin
        Profile.record_loop_exit st.profile loop ~iterations:count;
        List.iter (fire_normal st) elps
      end
    in
    iterate 0

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

(* Portable form: everything the simulation produced, minus the program it
   was produced from.  Persisting the program would marshal the whole graph
   (and pin warm loads to physical-identity pitfalls); instead the caller
   re-attaches its own program, which the store key already guarantees is
   the one simulated. *)
type portable_run = {
  p_logs : log array;
  p_passes : int;
  p_profile : Profile.t;
  p_pass_outputs : (string * Impact_util.Bitvec.t) list array;
  p_firings_total : int;
}

let to_portable (run : run) =
  {
    p_logs = run.logs;
    p_passes = run.passes;
    p_profile = run.profile;
    p_pass_outputs = run.pass_outputs;
    p_firings_total = run.firings_total;
  }

(* Structural sanity only — cross-run value identity is the store layer's
   checksum plus IMPACT_STORE_CHECK's recompute-and-compare.  The check
   covers everything an index accessor or a per-pass table relies on, and
   its scan of the tag column counts the tags.  [simulate] builds its run
   here too, so fresh and warm-loaded runs are made the same way. *)
let of_portable (program : Graph.program) p =
  let g = program.Graph.graph in
  let nn = Graph.node_count g in
  let bad what = invalid_arg ("Sim.of_portable: " ^ what ^ " does not match the program") in
  if Array.length p.p_logs <> nn then bad "event log";
  let tag_counts = Array.make (3 * nn) 0 and total = ref 0 in
  Array.iteri
    (fun nid l ->
      if l.stride <> Array.length (Graph.node g nid).Ir.inputs + 4 then bad "log stride";
      if l.count < 0 || Array.length l.chunks <> (l.count + chunk_events - 1) / chunk_events
      then bad "chunk count";
      Array.iteri
        (fun c chunk ->
          let events = min chunk_events (l.count - (c * chunk_events)) in
          if Array.length chunk <> events * l.stride then bad "chunk size";
          for j = 1 to events do
            let pass = chunk.((j * l.stride) - 3) and t = chunk.((j * l.stride) - 1) in
            if t < 0 || t > 2 || pass < 0 || pass >= p.p_passes then bad "firing record";
            tag_counts.((3 * nid) + t) <- tag_counts.((3 * nid) + t) + 1
          done)
        l.chunks;
      total := !total + l.count)
    p.p_logs;
  if !total <> p.p_firings_total then bad "firing total";
  {
    program;
    logs = p.p_logs;
    widths = static_widths g;
    tag_counts;
    passes = p.p_passes;
    profile = p.p_profile;
    pass_outputs = p.p_pass_outputs;
    firings_total = p.p_firings_total;
    edge_consumer = edge_consumers g;
  }

let simulate ?(max_loop_iters = 100_000) (program : Graph.program) ~workload =
  let g = program.Graph.graph in
  let nn = Graph.node_count g in
  let st =
    {
      g;
      sources =
        Array.init (Graph.edge_count g) (fun eid ->
            let e = Graph.edge g eid in
            match e.Ir.source with
            | Ir.Const v -> Src_const v
            | Ir.Primary_input name -> Src_input (name, e.Ir.e_width)
            | Ir.From_node nid -> Src_node nid);
      widths = static_widths g;
      node_out = Array.make nn None;
      logs =
        Array.init nn (fun nid ->
            { stride = Array.length (Graph.node g nid).Ir.inputs + 4; count = 0; chunks = [||] });
      profile = Profile.create ();
      pass = 0;
      seq = 0;
      inputs = [];
      outputs = [];
      firings = 0;
      max_loop_iters;
    }
  in
  let passes = List.length workload in
  let pass_outputs = Array.make (max passes 1) [] in
  List.iteri
    (fun pass inputs ->
      st.pass <- pass;
      st.seq <- 0;
      st.inputs <- inputs;
      st.outputs <- [];
      exec_region st program.Graph.top;
      pass_outputs.(pass) <- List.rev st.outputs)
    workload;
  Array.iter
    (fun l ->
      let j = l.count land (chunk_events - 1) and last = Array.length l.chunks - 1 in
      if j > 0 then l.chunks.(last) <- Array.sub l.chunks.(last) 0 (j * l.stride))
    st.logs;
  of_portable program
    {
      p_logs = st.logs;
      p_passes = passes;
      p_profile = st.profile;
      p_pass_outputs = pass_outputs;
      p_firings_total = st.firings;
    }

(* --- Index accessors ------------------------------------------------------- *)

let cell l i col = l.chunks.(i lsr chunk_bits).(((i land (chunk_events - 1)) * l.stride) + col)
let count (run : run) nid = run.logs.(nid).count
let ports (run : run) nid = run.logs.(nid).stride - 4
let output (run : run) nid i = cell run.logs.(nid) i 0
let input (run : run) nid i port = cell run.logs.(nid) i (port + 1)
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
