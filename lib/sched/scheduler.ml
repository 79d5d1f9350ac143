module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Analysis = Impact_cdfg.Analysis

type style = Wavesched | Baseline

type config = {
  clock_ns : float;
  flatten_ifs : bool;
  fold_loop_cond : bool;
  parallel_regions : bool;
  max_product_states : int;
}

let config_of_style style ~clock_ns =
  match style with
  | Wavesched ->
    {
      clock_ns;
      flatten_ifs = true;
      fold_loop_cond = true;
      parallel_regions = true;
      max_product_states = 20_000;
    }
  | Baseline ->
    {
      clock_ns;
      flatten_ifs = false;
      fold_loop_cond = false;
      parallel_regions = false;
      max_product_states = 20_000;
    }

(* --- Region normalisation: flatten loop-free conditionals --------------- *)

let rec has_loop = function
  | Ir.R_ops _ -> false
  | Ir.R_seq rs -> List.exists has_loop rs
  | Ir.R_if { then_r; else_r; _ } -> has_loop then_r || has_loop else_r
  | Ir.R_loop _ -> true

let rec merge_ops_children acc = function
  | [] -> List.rev acc
  | Ir.R_ops [] :: rest -> merge_ops_children acc rest
  | Ir.R_ops a :: Ir.R_ops b :: rest -> merge_ops_children acc (Ir.R_ops (a @ b) :: rest)
  | r :: rest -> merge_ops_children (r :: acc) rest

let rec flatten region =
  match region with
  | Ir.R_ops _ -> region
  | Ir.R_seq rs -> (
    match merge_ops_children [] (List.map flatten rs) with
    | [] -> Ir.R_ops []
    | [ r ] -> r
    | rs -> Ir.R_seq rs)
  | Ir.R_if _ when not (has_loop region) ->
    (* Speculative execution: both branches become plain dataflow; the Sel
       muxes (already in region_nodes order after the branches) pick. *)
    Ir.R_ops (Ir.region_nodes region)
  | Ir.R_if i -> Ir.R_if { i with then_r = flatten i.then_r; else_r = flatten i.else_r }
  | Ir.R_loop l -> Ir.R_loop { l with cond_r = flatten l.cond_r; body = flatten l.body }

(* --- Dependences between sibling regions -------------------------------- *)

module Iset = Set.Make (Int)

let region_writes region = Iset.of_list (Ir.region_nodes region)

let region_reads g region =
  let add_sources acc nid =
    let n = Graph.node g nid in
    let acc =
      Array.fold_left
        (fun acc eid ->
          match (Graph.edge g eid).Ir.source with
          | Ir.From_node src -> Iset.add src acc
          | Ir.Const _ | Ir.Primary_input _ -> acc)
        acc n.Ir.inputs
    in
    match n.Ir.ctrl with
    | Some { Ir.ctrl_edge; _ } -> (
      match (Graph.edge g ctrl_edge).Ir.source with
      | Ir.From_node src -> Iset.add src acc
      | Ir.Const _ | Ir.Primary_input _ -> acc)
    | None -> acc
  in
  List.fold_left add_sources Iset.empty (Ir.region_nodes region)

(* Sibling groups of a sequence, as child indices: with parallel regions,
   children at the same dependence level form one group, in level order;
   otherwise each child is its own group. *)
let seq_groups cfg g children =
  let n = Array.length children in
  if not cfg.parallel_regions then List.init n (fun j -> [ j ])
  else begin
    let writes = Array.map region_writes children in
    let reads = Array.map (region_reads g) children in
    let level = Array.make n 1 in
    for j = 0 to n - 1 do
      for i = 0 to j - 1 do
        if not (Iset.is_empty (Iset.inter reads.(j) writes.(i))) then
          level.(j) <- max level.(j) (level.(i) + 1)
      done
    done;
    let max_level = Array.fold_left max 1 level in
    List.init max_level (fun l -> List.filter (fun j -> level.(j) = l + 1) (List.init n Fun.id))
    |> List.filter (fun g -> g <> [])
  end

(* --- The schedule plan ---------------------------------------------------

   Everything the scheduler reads that depends only on (program, config):
   the flattened region tree, each sequence's sibling groups, each leaf's
   prepared arrays, and — inside those — every node's effective guard.  A
   plan is immutable once built, so one plan serves every reschedule of a
   search on any domain. *)

type pnode =
  | K_empty
  | K_ops of Leaf.plan
  | K_seq of group list
  | K_if of branch
  | K_loop of {
      cond_edge : Ir.edge_id;
      body : pnode;
      steps : Leaf.plan loop_steps;
      elps : Leaf.plan option;
    }

and group = G_fork of branch | G_one of pnode | G_par of pnode list

and branch = {
  b_cond_edge : Ir.edge_id;
  b_then : pnode;
  b_else : pnode;
  b_sels : Leaf.plan option;
}

(* A loop's leaves: prepared in the plan, scheduled into fragments when a
   reschedule wires the loop. *)
and 'leaf loop_steps =
  | Folded of { header : 'leaf; latch : 'leaf }
  | Headed of { pre : 'leaf; cond : 'leaf; latch : 'leaf }

type plan = {
  pl_top_region : Ir.region;  (* unflattened: the plan's identity *)
  pl_cfg : config;
  pl_top : pnode;
}

let make_plan cfg g top_region =
  let analysis = Analysis.create g in
  for nid = 0 to Graph.node_count g - 1 do
    ignore (Analysis.effective_guard analysis nid)
  done;
  let top = if cfg.flatten_ifs then flatten top_region else top_region in
  let ops ids = Leaf.prepare analysis (List.map Leaf.normal ids) in
  let ops_opt ids = if ids = [] then None else Some (ops ids) in
  let rec plan_region region =
    match region with
    | Ir.R_ops [] -> K_empty
    | Ir.R_ops ids -> K_ops (ops ids)
    | Ir.R_seq rs ->
      let planned = Array.of_list (List.map plan_region rs) in
      let group = function
        | [ j ] -> ( match planned.(j) with K_if b -> G_fork b | p -> G_one p)
        | members -> G_par (List.map (Array.get planned) members)
      in
      K_seq (List.map group (seq_groups cfg g (Array.of_list rs)))
    | Ir.R_if { cond_edge; then_r; else_r; sels } ->
      K_if
        {
          b_cond_edge = cond_edge;
          b_then = plan_region then_r;
          b_else = plan_region else_r;
          b_sels = ops_opt sels;
        }
    | Ir.R_loop { merges; cond_r; cond_edge; body; elps; _ } ->
      let cond_specs = List.map Leaf.normal (Ir.region_nodes cond_r) in
      let leaf specs = Leaf.prepare analysis specs in
      let steps =
        if cfg.fold_loop_cond then
          Folded
            {
              header = leaf (List.map Leaf.merge_init merges @ cond_specs);
              latch = leaf (List.map Leaf.merge_back merges @ cond_specs);
            }
        else
          Headed
            {
              pre = leaf (List.map Leaf.merge_init merges);
              cond = leaf cond_specs;
              latch = leaf (List.map Leaf.merge_back merges);
            }
      in
      K_loop { cond_edge; body = plan_region body; steps; elps = ops_opt elps }
  in
  { pl_top_region = top_region; pl_cfg = cfg; pl_top = plan_region top }

(* [schedule] runs thousands of times per search on the same program, so a
   plan lives as long as its program: plans are kept in an ephemeron table
   keyed by the physical identity of the program's graph, one per region
   tree and config scheduled on it.  However many programs are scheduled
   interleaved, none evicts another's plan, and a plan goes when its
   program does.  Plans are built outside the lock; two domains racing on
   one build identical values, and the first published is kept. *)
module Plans = Ephemeron.K1.Make (struct
  type t = Graph.t

  let equal = ( == )
  let hash = Graph.node_count
end)

let plans = Plans.create 16
let plans_lock = Mutex.create ()

let plan_for cfg (program : Graph.program) =
  let g = program.Graph.graph and top = program.Graph.top in
  let mine p = p.pl_top_region == top && (p.pl_cfg == cfg || p.pl_cfg = cfg) in
  let known () = Option.value (Plans.find_opt plans g) ~default:[] in
  match List.find_opt mine (Mutex.protect plans_lock known) with
  | Some p -> p
  | None ->
    let p = make_plan cfg g top in
    Mutex.protect plans_lock (fun () ->
        let ps = known () in
        match List.find_opt mine ps with
        | Some first -> first
        | None ->
          Plans.replace plans g (p :: ps);
          p)

(* --- One reschedule -------------------------------------------------------- *)

type ctx = { cfg : config; delay : Models.delay_model; res : Models.resource_model }

(* --- Fragment composition ----------------------------------------------- *)

(* Functional units used by a fragment (for parallel-composition conflict
   detection). *)
let frag_fus (res : Models.resource_model) frag =
  let acc = ref Iset.empty in
  for s = 0 to Stg.frag_state_count frag - 1 do
    List.iter
      (fun fr ->
        match res.Models.fu_of fr.Stg.f_node with
        | Some fu -> acc := Iset.add fu !acc
        | None -> ())
      (Stg.frag_state frag s).Stg.firings
  done;
  !acc

(* Independent siblings as a synchronous product, serialised where they
   share a unit or the product grows too large. *)
let par_fold ~res ~max_states frags =
  match frags with
  | [] -> Stg.frag_empty ()
  | first :: rest ->
    List.fold_left
      (fun acc frag ->
        let conflict =
          not (Iset.is_empty (Iset.inter (frag_fus res acc) (frag_fus res frag)))
        in
        if conflict then Stg.seq acc frag
        else
          match Stg.par ~max_states acc frag with
          | product -> product
          | exception Stg.Product_too_large -> Stg.seq acc frag)
      first rest

(* A loop wired from its body's fragment and its leaves' fragments. *)
let loop_wire ~cond_edge body_f steps =
  let f, loop_exits =
    match steps with
    | Folded { header; latch } ->
      (* Header: merge inits chained with the first condition evaluation.
         Latch: merge register writes chained with the next iteration's
         condition.  The back edge re-enters the body directly. *)
      let inner = Stg.seq body_f latch in
      let inner = Stg.back_edges inner ~cond_edge ~target:(Stg.frag_entry inner) in
      let f = header in
      let off = Stg.graft f inner in
      let header_exits = Stg.frag_exits f in
      let exits = ref [] in
      List.iter
        (fun (s, g) ->
          Stg.frag_add_transition f ~src:s
            (Guard.conj g (Guard.atom cond_edge true))
            ~dst:(Stg.frag_entry inner + off);
          exits := (s, Guard.conj g (Guard.atom cond_edge false)) :: !exits)
        header_exits;
      List.iter (fun (s, g) -> exits := (s + off, g) :: !exits) (Stg.frag_exits inner);
      Stg.frag_set_exits f [];
      (f, List.rev !exits)
    | Headed { pre; cond = condf; latch } ->
      (* Baseline: pre-header, separate condition header re-entered every
         iteration, body, latch. *)
      let bodylatch = Stg.seq body_f latch in
      let f = pre in
      let off_c = Stg.graft f condf in
      let off_b = Stg.graft f bodylatch in
      List.iter
        (fun (s, g) -> Stg.frag_add_transition f ~src:s g ~dst:(Stg.frag_entry condf + off_c))
        (Stg.frag_exits f);
      let exits = ref [] in
      List.iter
        (fun (s, g) ->
          Stg.frag_add_transition f ~src:(s + off_c)
            (Guard.conj g (Guard.atom cond_edge true))
            ~dst:(Stg.frag_entry bodylatch + off_b);
          exits := (s + off_c, Guard.conj g (Guard.atom cond_edge false)) :: !exits)
        (Stg.frag_exits condf);
      List.iter
        (fun (s, g) ->
          Stg.frag_add_transition f ~src:(s + off_b) g ~dst:(Stg.frag_entry condf + off_c))
        (Stg.frag_exits bodylatch);
      Stg.frag_set_exits f [];
      (f, List.rev !exits)
  in
  List.iter (fun (s, g) -> Stg.frag_add_exit f ~src:s g) loop_exits;
  f

(* --- Fragment construction from the plan -------------------------------- *)

let leaf_frag ctx leaf =
  Stg.frag_of_chain
    (Leaf.run leaf ~delay:ctx.delay ~res:ctx.res ~clock_ns:ctx.cfg.clock_ns)

let rec region_frag ctx p =
  match p with
  | K_empty -> Stg.frag_empty ()
  | K_ops ops -> leaf_frag ctx ops
  | K_seq groups -> seq_frag ctx groups
  | K_if b -> branch_frag ctx (Stg.frag_empty ()) b
  | K_loop { cond_edge; body; steps; elps } ->
    let body_f = region_frag ctx body in
    let steps =
      match steps with
      | Folded { header; latch } ->
        let header = leaf_frag ctx header in
        Folded { header; latch = leaf_frag ctx latch }
      | Headed { pre; cond; latch } ->
        let pre = leaf_frag ctx pre in
        let cond = leaf_frag ctx cond in
        Headed { pre; cond; latch = leaf_frag ctx latch }
    in
    let f = loop_wire ~cond_edge body_f steps in
    (match elps with None -> f | Some elps -> Stg.seq f (leaf_frag ctx elps))

(* A conditional forked directly off [prefix] (no dispatch state), then its
   Sel muxes. *)
and branch_frag ctx prefix b =
  let then_f = region_frag ctx b.b_then in
  let else_f = region_frag ctx b.b_else in
  let forked = Stg.fork prefix ~cond_edge:b.b_cond_edge ~then_f ~else_f in
  match b.b_sels with None -> forked | Some sels -> Stg.seq forked (leaf_frag ctx sels)

(* Sequential children, with parallel grouping of independent siblings and
   conditional forks folded onto the running fragment. *)
and seq_frag ctx groups =
  let cur = ref None in
  List.iter
    (fun group ->
      let frag =
        match group with
        | G_fork b ->
          branch_frag ctx (match !cur with Some c -> c | None -> Stg.frag_empty ()) b
        | G_one p -> (
          let f = region_frag ctx p in
          match !cur with None -> f | Some c -> Stg.seq c f)
        | G_par members -> (
          let f =
            par_fold ~res:ctx.res ~max_states:ctx.cfg.max_product_states
              (List.map (standalone_frag ctx) members)
          in
          match !cur with None -> f | Some c -> Stg.seq c f)
      in
      cur := Some frag)
    groups;
  match !cur with Some f -> f | None -> Stg.frag_empty ()

(* A fragment usable as one side of a parallel product: conditionals get
   their own dispatch state. *)
and standalone_frag ctx p =
  match p with
  | K_if b -> branch_frag ctx (Stg.frag_empty ()) b
  | _ -> region_frag ctx p

(* --- The plan-free reference --------------------------------------------

   The same schedule computed straight from the region tree, carrying
   nothing over from an earlier call: a fresh {!Analysis.t}, each
   sequence's dependence levels and each leaf's arrays recomputed on the
   way down ({!Leaf.schedule}).  The schedule oracle compares every
   planned schedule with it, so a fault in what the plan precomputes shows as a
   divergence.  Only the composition of finished fragments
   ({!par_fold}, {!loop_wire}) is shared with the planned path. *)

type ref_ctx = {
  r_cfg : config;
  r_analysis : Analysis.t;
  r_delay : Models.delay_model;
  r_res : Models.resource_model;
}

let ref_leaf rc specs =
  Stg.frag_of_chain
    (Leaf.schedule rc.r_analysis ~delay:rc.r_delay ~res:rc.r_res
       ~clock_ns:rc.r_cfg.clock_ns specs)

let ref_ops rc ids = ref_leaf rc (List.map Leaf.normal ids)

let rec ref_region rc region =
  match region with
  | Ir.R_ops [] -> Stg.frag_empty ()
  | Ir.R_ops ids -> ref_ops rc ids
  | Ir.R_seq rs -> ref_seq rc rs
  | Ir.R_if _ -> ref_seq rc [ region ]
  | Ir.R_loop { merges; cond_r; cond_edge; body; elps; _ } ->
    let cond_specs = List.map Leaf.normal (Ir.region_nodes cond_r) in
    let body_f = ref_region rc body in
    let steps =
      if rc.r_cfg.fold_loop_cond then
        let header = ref_leaf rc (List.map Leaf.merge_init merges @ cond_specs) in
        Folded { header; latch = ref_leaf rc (List.map Leaf.merge_back merges @ cond_specs) }
      else
        let pre = ref_leaf rc (List.map Leaf.merge_init merges) in
        let cond = ref_leaf rc cond_specs in
        Headed { pre; cond; latch = ref_leaf rc (List.map Leaf.merge_back merges) }
    in
    let f = loop_wire ~cond_edge body_f steps in
    if elps = [] then f else Stg.seq f (ref_ops rc elps)

and ref_seq rc children =
  let g = Analysis.graph rc.r_analysis in
  let n = List.length children in
  let children = Array.of_list children in
  let writes = Array.map region_writes children in
  let reads = Array.map (region_reads g) children in
  let level = Array.make n 1 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if not (Iset.is_empty (Iset.inter reads.(j) writes.(i))) then
        level.(j) <- max level.(j) (level.(i) + 1)
    done
  done;
  let groups =
    if rc.r_cfg.parallel_regions then
      List.init (Array.fold_left max 1 level) (fun l ->
          List.filteri (fun j _ -> level.(j) = l + 1) (Array.to_list children))
      |> List.filter (fun g -> g <> [])
    else List.map (fun c -> [ c ]) (Array.to_list children)
  in
  let cur = ref None in
  let append frag = cur := Some (match !cur with None -> frag | Some c -> Stg.seq c frag) in
  List.iter
    (function
      | [ Ir.R_if { cond_edge; then_r; else_r; sels } ] ->
        let prefix = match !cur with Some c -> c | None -> Stg.frag_empty () in
        let then_f = ref_region rc then_r in
        let else_f = ref_region rc else_r in
        cur := Some (Stg.fork prefix ~cond_edge ~then_f ~else_f);
        if sels <> [] then append (ref_ops rc sels)
      | [ single ] -> append (ref_region rc single)
      | members ->
        append
          (par_fold ~res:rc.r_res ~max_states:rc.r_cfg.max_product_states
             (List.map (ref_standalone rc) members)))
    groups;
  match !cur with Some f -> f | None -> Stg.frag_empty ()

and ref_standalone rc region =
  match region with
  | Ir.R_if { cond_edge; then_r; else_r; sels } ->
    let then_f = ref_region rc then_r in
    let else_f = ref_region rc else_r in
    let forked = Stg.fork (Stg.frag_empty ()) ~cond_edge ~then_f ~else_f in
    if sels = [] then forked else Stg.seq forked (ref_ops rc sels)
  | _ -> ref_region rc region

let schedule_reference cfg (program : Graph.program) ~delay ~res =
  let rc =
    { r_cfg = cfg; r_analysis = Analysis.create program.Graph.graph; r_delay = delay; r_res = res }
  in
  let top = if cfg.flatten_ifs then flatten program.Graph.top else program.Graph.top in
  Stg.instantiate (ref_region rc top) ~clock_ns:cfg.clock_ns

let schedule ?frags:_ cfg (program : Graph.program) ~delay ~res =
  let plan = plan_for cfg program in
  let stg = Stg.instantiate (region_frag { cfg; delay; res } plan.pl_top) ~clock_ns:cfg.clock_ns in
  if Impact_util.Oracle.enabled () then begin
    (* The plan is an implementation detail, never a semantic one: the
       plan-free reference, read through the caller's own model closures,
       must be bit-identical. *)
    let cold = schedule_reference cfg program ~delay ~res in
    if Stg.signature cold <> Stg.signature stg then
      Impact_util.Oracle.fail "schedule" "planned schedule diverges from the plan-free reference";
    Impact_util.Diagnostic.fail_on_errors
      ~header:
        (Impact_util.Oracle.message "schedule" "planned STG fails structural validation:")
      (Check.splice_issues stg)
  end;
  stg

let min_enc_schedule style ~clock_ns (program : Graph.program) library =
  let delay, res = Models.parallel_models program.Graph.graph library in
  schedule (config_of_style style ~clock_ns) program ~delay ~res
