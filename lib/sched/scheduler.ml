module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Analysis = Impact_cdfg.Analysis
module Keybuf = Impact_util.Keybuf

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

(* [IMPACT_SCHED_CHECK=1]: every spliced schedule is recomputed cold (no
   fragment cache) and the two STGs must agree on {!Stg.signature}; every
   cache-served fragment is structurally validated ({!Check}).  Mirrors the
   IMPACT_STORE_CHECK / IMPACT_CHECK_LEDGER conventions. *)
let check_enabled () =
  match Sys.getenv_opt "IMPACT_SCHED_CHECK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

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

(* --- Fragment keys -------------------------------------------------------

   A region's fragment is a pure function of: the region's structure, the
   clock and scheduling config, and — per contained operation — its latency,
   the mux delay on each input port, the mux delay into its destination
   register, its functional-unit binding and whether that unit pipelines.
   (Graph-wide inputs — edges, guards, mutual exclusion — are constant for
   one program, and a cache serves one program.)  Those are exactly the
   inputs {!Leaf.schedule} and the composition rules read, so two regions
   with equal keys schedule to bit-identical fragments: fragment reuse is
   sound by construction, not by invalidation bookkeeping.  Moves perturb
   the models only for operations on the units/registers they touch, so
   untouched regions keep their keys and splice their previous fragments
   verbatim.

   A key is a prefix fixed by the program and config (config fingerprint,
   tag, structure), built once in the plan, followed by each contained
   node's model bytes in {!Ir.region_nodes} order.  A region's
   nodes are a contiguous run of the top region's node order, so one
   reschedule encodes every node's model bytes once and each key is its
   prefix plus one slice of that encoding. *)

let config_fingerprint cfg =
  Printf.sprintf "%h|%b|%b|%b|%d|" cfg.clock_ns cfg.flatten_ifs
    cfg.fold_loop_cond cfg.parallel_regions cfg.max_product_states

let key_prefix ~cfg_fp ~tag region =
  let kb = Keybuf.create 256 in
  Keybuf.string kb cfg_fp;
  Keybuf.tag kb tag;
  let rec structure r =
    match r with
    | Ir.R_ops ids ->
      Keybuf.tag kb 'O';
      Keybuf.ints kb ids
    | Ir.R_seq rs ->
      Keybuf.tag kb 'S';
      Keybuf.list kb (fun _ r -> structure r) rs
    | Ir.R_if { cond_edge; then_r; else_r; sels } ->
      Keybuf.tag kb 'I';
      Keybuf.int kb cond_edge;
      structure then_r;
      structure else_r;
      Keybuf.ints kb sels
    | Ir.R_loop { loop; merges; cond_r; cond_edge; body; elps } ->
      Keybuf.tag kb 'L';
      Keybuf.int kb loop;
      Keybuf.ints kb merges;
      structure cond_r;
      Keybuf.int kb cond_edge;
      structure body;
      Keybuf.ints kb elps
  in
  structure region;
  Keybuf.contents kb

(* One node's model bytes: every per-node value the scheduler reads. *)
let add_models kb g ~delay ~res nid =
  Keybuf.int kb nid;
  Keybuf.float kb (delay.Models.op_latency_ns nid);
  Array.iteri
    (fun port _ -> Keybuf.float kb (delay.Models.input_extra_ns nid ~port))
    (Graph.node g nid).Ir.inputs;
  Keybuf.float kb (delay.Models.output_extra_ns nid);
  Keybuf.int kb (match res.Models.fu_of nid with Some fu -> fu | None -> -1);
  Keybuf.tag kb (if res.Models.pipelined nid then 'P' else 'p')

(* --- The schedule plan ---------------------------------------------------

   Everything the scheduler reads that depends only on (program, config):
   the flattened region tree, each cacheable region's key prefix, each
   sequence's sibling groups, each leaf's prepared arrays, and — inside
   those — every node's effective guard.  A plan is immutable once built,
   so one plan serves every reschedule of a search on any domain. *)

type pnode = {
  p_first : int;
  p_count : int;  (* the region's nodes: a run of the top region's node order *)
  p_key_r : string option;  (* key prefix under 'R'; [None] when not cacheable *)
  p_kind : kind;
}

and kind =
  | K_empty
  | K_ops of Leaf.plan
  | K_seq of { children : pnode list; groups : group list }
      (* [children] in sequence order, for {!region_report} *)
  | K_if of branch
  | K_loop of {
      cond_edge : Ir.edge_id;
      cond_p : pnode;  (* for {!region_report}; scheduling reads [steps] *)
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
  b_key_p : string option;  (* key prefix under 'P', for parallel products *)
}

(* A loop's leaves: prepared in the plan, scheduled into fragments when a
   reschedule wires the loop. *)
and 'leaf loop_steps =
  | Folded of { header : 'leaf; latch : 'leaf }
  | Headed of { pre : 'leaf; cond : 'leaf; latch : 'leaf }

type plan = {
  pl_graph : Graph.t;
  pl_top_region : Ir.region;  (* unflattened: the plan's identity *)
  pl_cfg : config;
  pl_cfg_fp : string;  (* {!config_fingerprint}: the plan's config identity *)
  pl_nodes : Ir.node_id array;  (* the flattened top region's node order *)
  pl_top : pnode;
}

(* Regions below two operations schedule in less time than they key. *)
let cacheable region =
  match Ir.region_nodes region with [] | [ _ ] -> false | _ -> true

let make_plan cfg g top_region =
  let analysis = Analysis.create g in
  for nid = 0 to Graph.node_count g - 1 do
    ignore (Analysis.effective_guard analysis nid)
  done;
  let top = if cfg.flatten_ifs then flatten top_region else top_region in
  let cfg_fp = config_fingerprint cfg in
  let ops ids = Leaf.prepare analysis (List.map Leaf.normal ids) in
  let ops_opt ids = if ids = [] then None else Some (ops ids) in
  (* [first] is the region's position in the top region's node order;
     children are planned in {!Ir.region_nodes} order so each one's first
     position follows its predecessors'. *)
  let rec plan_region first region =
    let count = List.length (Ir.region_nodes region) in
    let key tag = if cacheable region then Some (key_prefix ~cfg_fp ~tag region) else None in
    let kind =
      match region with
      | Ir.R_ops [] -> K_empty
      | Ir.R_ops ids -> K_ops (ops ids)
      | Ir.R_seq rs ->
        let children = plan_children first rs in
        let planned = Array.of_list children in
        let group = function
          | [ j ] -> (
            match planned.(j).p_kind with K_if b -> G_fork b | _ -> G_one planned.(j))
          | members -> G_par (List.map (Array.get planned) members)
        in
        K_seq
          { children; groups = List.map group (seq_groups cfg g (Array.of_list rs)) }
      | Ir.R_if { cond_edge; then_r; else_r; sels } ->
        let b_then = plan_region first then_r in
        let b_else = plan_region (first + b_then.p_count) else_r in
        K_if
          { b_cond_edge = cond_edge; b_then; b_else; b_sels = ops_opt sels; b_key_p = key 'P' }
      | Ir.R_loop { merges; cond_r; cond_edge; body; elps; _ } ->
        let cond_p = plan_region (first + List.length merges) cond_r in
        let body = plan_region (cond_p.p_first + cond_p.p_count) body in
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
        K_loop { cond_edge; cond_p; body; steps; elps = ops_opt elps }
    in
    { p_first = first; p_count = count; p_key_r = key 'R'; p_kind = kind }
  and plan_children first = function
    | [] -> []
    | r :: rest ->
      let p = plan_region first r in
      p :: plan_children (first + p.p_count) rest
  in
  {
    pl_graph = g;
    pl_top_region = top_region;
    pl_cfg = cfg;
    pl_cfg_fp = cfg_fp;
    pl_nodes = Array.of_list (Ir.region_nodes top);
    pl_top = plan_region 0 top;
  }

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
  let mine p =
    p.pl_top_region == top
    && (p.pl_cfg == cfg || String.equal p.pl_cfg_fp (config_fingerprint cfg))
  in
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

type ctx = {
  plan : plan;
  delay : Models.delay_model;
  res : Models.resource_model;
  frags : (Fragcache.t * keys) option;
  check : bool;  (* IMPACT_SCHED_CHECK, read once per [schedule] call *)
}

(* Every node's model bytes, encoded once per reschedule in the top
   region's node order; [k_off.(i)] is where position [i]'s bytes start. *)
and keys = { k_models : string; k_off : int array }

(* Every per-node model value the scheduler reads, looked up once per
   cached [schedule] call into arrays (and encoded for the keys): nested
   regions' keys and the leaf scheduler then index those instead of
   re-running the caller's model closures (hashtable lookups in the
   datapath) per enclosing region.  A schedule without a fragment cache
   keys nothing and reads the closures directly. *)
let tabulate plan ~delay ~res =
  let g = plan.pl_graph in
  let nn = Graph.node_count g in
  let latency = Array.make nn 0. and input_extra = Array.make nn [||] in
  let output_extra = Array.make nn 0. and unit = Array.make nn None in
  let pipelined = Array.make nn false in
  Array.iter
    (fun nid ->
      latency.(nid) <- delay.Models.op_latency_ns nid;
      input_extra.(nid) <-
        Array.mapi
          (fun port _ -> delay.Models.input_extra_ns nid ~port)
          (Graph.node g nid).Ir.inputs;
      output_extra.(nid) <- delay.Models.output_extra_ns nid;
      unit.(nid) <- res.Models.fu_of nid;
      pipelined.(nid) <- res.Models.pipelined nid)
    plan.pl_nodes;
  let delay =
    {
      Models.op_latency_ns = Array.get latency;
      input_extra_ns = (fun nid ~port -> input_extra.(nid).(port));
      output_extra_ns = Array.get output_extra;
    }
  and res = { Models.fu_of = Array.get unit; pipelined = Array.get pipelined } in
  let n = Array.length plan.pl_nodes in
  let kb = Keybuf.create (32 * (n + 1)) in
  let off = Array.make (n + 1) 0 in
  Array.iteri
    (fun i nid ->
      add_models kb g ~delay ~res nid;
      off.(i + 1) <- Keybuf.length kb)
    plan.pl_nodes;
  (delay, res, { k_models = Keybuf.contents kb; k_off = off })

let region_key keys prefix p =
  let a = keys.k_off.(p.p_first) and b = keys.k_off.(p.p_first + p.p_count) in
  let plen = String.length prefix in
  let key = Bytes.create (plen + b - a) in
  Bytes.blit_string prefix 0 key 0 plen;
  Bytes.blit_string keys.k_models a key plen (b - a);
  Bytes.unsafe_to_string key

let cached_frag ctx prefix p compute =
  match (ctx.frags, prefix) with
  | None, _ | _, None -> compute ()
  | Some (fc, keys), Some prefix -> (
    let key = region_key keys prefix p in
    match Fragcache.find fc key with
    | Some frag ->
      if ctx.check then begin
        match Impact_util.Diagnostic.errors (Check.splice_frag_issues frag) with
        | [] -> ()
        | issues ->
          failwith
            (Impact_util.Diagnostic.report
               ~header:"IMPACT_SCHED_CHECK: cached fragment fails splice validation:"
               issues)
      end;
      frag
    | None ->
      let frag = compute () in
      Fragcache.add fc key frag;
      frag)

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
    (Leaf.run leaf ~delay:ctx.delay ~res:ctx.res ~clock_ns:ctx.plan.pl_cfg.clock_ns)

let rec region_frag ctx p = cached_frag ctx p.p_key_r p (fun () -> region_frag_raw ctx p)

and region_frag_raw ctx p =
  match p.p_kind with
  | K_empty -> Stg.frag_empty ()
  | K_ops ops -> leaf_frag ctx ops
  | K_seq { groups; _ } -> seq_frag ctx groups
  | K_if b -> branch_frag ctx (Stg.frag_empty ()) b
  | K_loop { cond_edge; body; steps; elps; _ } ->
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
            par_fold ~res:ctx.res ~max_states:ctx.plan.pl_cfg.max_product_states
              (List.map (standalone_frag ctx) members)
          in
          match !cur with None -> f | Some c -> Stg.seq c f)
      in
      cur := Some frag)
    groups;
  match !cur with Some f -> f | None -> Stg.frag_empty ()

(* A fragment usable as one side of a parallel product: conditionals get
   their own dispatch state.  Cached under a tag distinct from [region_frag]
   so the two call sites can never serve each other's entries. *)
and standalone_frag ctx p =
  match p.p_kind with
  | K_if b -> cached_frag ctx b.b_key_p p (fun () -> branch_frag ctx (Stg.frag_empty ()) b)
  | _ -> region_frag ctx p

(* --- The plan-free reference --------------------------------------------

   The same schedule computed straight from the region tree, carrying
   nothing over from an earlier call: a fresh {!Analysis.t}, each
   sequence's dependence levels and each leaf's arrays recomputed on the
   way down ({!Leaf.schedule}), the caller's model closures read directly,
   no fragment cache.  [IMPACT_SCHED_CHECK] compares every spliced
   schedule with it, so a fault in what the plan precomputes shows as a
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

let schedule ?frags cfg (program : Graph.program) ~delay ~res =
  let check = check_enabled () in
  let plan = plan_for cfg program in
  let ctx =
    match frags with
    | None -> { plan; delay; res; frags = None; check }
    | Some fc ->
      let delay, res, keys = tabulate plan ~delay ~res in
      { plan; delay; res; frags = Some (fc, keys); check }
  in
  let stg = Stg.instantiate (region_frag ctx plan.pl_top) ~clock_ns:cfg.clock_ns in
  (match frags with
  | Some _ when check ->
    (* Cold reference: the same schedule computed without the plan and
       without fragment reuse, read through the caller's own model
       closures, must be bit-identical — splicing, tabulation and the plan
       are implementation details, never semantic ones. *)
    let cold = schedule_reference cfg program ~delay ~res in
    if Stg.signature cold <> Stg.signature stg then
      failwith
        "IMPACT_SCHED_CHECK: spliced schedule diverges from a cold reschedule";
    (match Impact_util.Diagnostic.errors (Check.splice_issues stg) with
    | [] -> ()
    | issues ->
      failwith
        (Impact_util.Diagnostic.report
           ~header:"IMPACT_SCHED_CHECK: spliced STG fails structural validation:"
           issues))
  | Some _ | None -> ());
  stg

(* The cacheable regions of a program's (flattened) region tree with their
   current keys, outermost first.  A reschedule after a move can only
   change the fragments of regions whose key changed; the
   footprint-classification tests assert that those regions all intersect
   the move's resource footprint. *)
let region_report cfg (program : Graph.program) ~delay ~res =
  let plan = plan_for cfg program in
  let _, _, keys = tabulate plan ~delay ~res in
  let nodes p = Array.to_list (Array.sub plan.pl_nodes p.p_first p.p_count) in
  let rec walk acc p =
    let acc =
      match p.p_key_r with
      | Some prefix -> (nodes p, region_key keys prefix p) :: acc
      | None -> acc
    in
    match p.p_kind with
    | K_empty | K_ops _ -> acc
    | K_seq { children; _ } -> List.fold_left walk acc children
    | K_if b -> walk (walk acc b.b_then) b.b_else
    | K_loop { cond_p; body; _ } -> walk (walk acc body) cond_p
  in
  List.rev (walk [] plan.pl_top)

let min_enc_schedule style ~clock_ns (program : Graph.program) library =
  let delay, res = Models.parallel_models program.Graph.graph library in
  schedule (config_of_style style ~clock_ns) program ~delay ~res
