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
  fds_leaves : bool;
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
      fds_leaves = false;
    }
  | Baseline ->
    {
      clock_ns;
      flatten_ifs = false;
      fold_loop_cond = false;
      parallel_regions = false;
      max_product_states = 20_000;
      fds_leaves = false;
    }

type ctx = {
  cfg : config;
  analysis : Analysis.t;
  delay : Models.delay_model;
  res : Models.resource_model;
  frags : Fragcache.t option;
  cfg_fp : string;  (* config fingerprint, folded into every fragment key *)
  check : bool;  (* IMPACT_SCHED_CHECK, read once per [schedule] call *)
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

(* Flattening is pure on an immutable region tree and [schedule] runs
   thousands of times per search on the same program, so the last result is
   memoised by physical identity.  The race on the slot is benign: a losing
   domain recomputes an identical value. *)
let flatten_memo : (Ir.region * Ir.region) option Atomic.t = Atomic.make None

let flatten_cached top =
  match Atomic.get flatten_memo with
  | Some (k, v) when k == top -> v
  | _ ->
    let v = flatten top in
    Atomic.set flatten_memo (Some (top, v));
    v

(* --- Dependences between sibling regions -------------------------------- *)

module Iset = Set.Make (Int)

let region_writes region = Iset.of_list (Ir.region_nodes region)

let region_reads ctx region =
  let g = Analysis.graph ctx.analysis in
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

(* --- Leaf helpers -------------------------------------------------------- *)

let leaf_frag ctx specs =
  Stg.frag_of_chain
    (Leaf.schedule ctx.analysis ~delay:ctx.delay ~res:ctx.res
       ~clock_ns:ctx.cfg.clock_ns specs)

(* Pure dataflow leaves can alternatively be scheduled by the
   force-directed balancer (no chaining, resource-levelled). *)
let ops_frag ctx ids =
  if ctx.cfg.fds_leaves && ids <> [] then
    Stg.frag_of_chain
      (Force_directed.to_states ~delay:ctx.delay ~clock_ns:ctx.cfg.clock_ns
         (Force_directed.schedule ctx.analysis ~delay:ctx.delay
            ~clock_ns:ctx.cfg.clock_ns ids))
  else leaf_frag ctx (List.map Leaf.normal ids)

(* Functional units used by a fragment (for parallel-composition conflict
   detection). *)
let frag_fus ctx frag =
  let acc = ref Iset.empty in
  for s = 0 to Stg.frag_state_count frag - 1 do
    List.iter
      (fun fr ->
        match ctx.res.Models.fu_of fr.Stg.f_node with
        | Some fu -> acc := Iset.add fu !acc
        | None -> ())
      (Stg.frag_state frag s).Stg.firings
  done;
  !acc

(* --- Fragment digests ----------------------------------------------------

   A region's fragment is a pure function of: the region's structure, the
   clock and scheduling config, and — per contained operation — its latency,
   the mux delay on each input port, the mux delay into its destination
   register, its functional-unit binding and whether that unit pipelines.
   (Graph-wide inputs — edges, guards, mutual exclusion — are constant for
   one program and bound into the cache's context by the caller.)  Those are
   exactly the inputs {!Leaf.schedule}/{!Force_directed.schedule} and the
   composition rules read, so two regions with equal digests schedule to
   bit-identical fragments: fragment reuse is sound by construction, not by
   invalidation bookkeeping.  Moves perturb the models only for operations
   on the units/registers they touch, so untouched regions keep their
   digests and splice their previous fragments verbatim. *)

(* Every per-node model value the scheduler reads, looked up once per
   cached [schedule] call into arrays: the digests of nested regions and
   the leaf scheduler then index those instead of re-running the caller's
   model closures (hashtable lookups in the datapath) per enclosing
   region.  A schedule without a fragment cache digests nothing and reads
   the closures directly. *)
let tabulate g ~delay ~res top =
  let nn = Graph.node_count g in
  let latency = Array.make nn 0. and input_extra = Array.make nn [||] in
  let output_extra = Array.make nn 0. and unit = Array.make nn None in
  let pipelined = Array.make nn false in
  List.iter
    (fun nid ->
      latency.(nid) <- delay.Models.op_latency_ns nid;
      input_extra.(nid) <-
        Array.mapi
          (fun port _ -> delay.Models.input_extra_ns nid ~port)
          (Graph.node g nid).Ir.inputs;
      output_extra.(nid) <- delay.Models.output_extra_ns nid;
      unit.(nid) <- res.Models.fu_of nid;
      pipelined.(nid) <- res.Models.pipelined nid)
    (Ir.region_nodes top);
  ( {
      Models.op_latency_ns = Array.get latency;
      input_extra_ns = (fun nid ~port -> input_extra.(nid).(port));
      output_extra_ns = Array.get output_extra;
    },
    { Models.fu_of = Array.get unit; pipelined = Array.get pipelined } )

(* The first byte of every region key.  A store may hold fragments filed
   by a build with another key format; a distinct leading byte makes those
   read as misses instead of aliasing a key of this format. *)
let key_format = '\002'

let digest_region ~g ~cfg_fp ~delay ~res ~tag region =
  (* Compact self-delimiting fields ({!Impact_util.Keybuf}) read from the
     tabulated models: this runs per candidate move per region. *)
  let kb = Keybuf.create 512 in
  Keybuf.tag kb key_format;
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
  List.iter
    (fun nid ->
      Keybuf.int kb nid;
      Keybuf.float kb (delay.Models.op_latency_ns nid);
      Array.iteri
        (fun port _ -> Keybuf.float kb (delay.Models.input_extra_ns nid ~port))
        (Graph.node g nid).Ir.inputs;
      Keybuf.float kb (delay.Models.output_extra_ns nid);
      Keybuf.int kb (match res.Models.fu_of nid with Some fu -> fu | None -> -1);
      Keybuf.tag kb (if res.Models.pipelined nid then 'P' else 'p'))
    (Ir.region_nodes region);
  Keybuf.contents kb

let config_fingerprint cfg =
  Printf.sprintf "%h|%b|%b|%b|%d|%b|" cfg.clock_ns cfg.flatten_ifs
    cfg.fold_loop_cond cfg.parallel_regions cfg.max_product_states cfg.fds_leaves

(* Regions below two operations schedule in less time than they digest. *)
let cacheable region =
  match Ir.region_nodes region with [] | [ _ ] -> false | _ -> true

let cached_frag ctx fc ~tag region compute =
  let key =
    digest_region ~g:(Analysis.graph ctx.analysis) ~cfg_fp:ctx.cfg_fp
      ~delay:ctx.delay ~res:ctx.res ~tag region
  in
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
    let t0 = Impact_util.Parallel.now_s () in
    let frag = compute () in
    let cost_ns = int_of_float ((Impact_util.Parallel.now_s () -. t0) *. 1e9) in
    Fragcache.add fc key ~cost_ns frag;
    frag

(* --- Fragment construction ---------------------------------------------- *)

let rec region_frag ctx region =
  match ctx.frags with
  | Some fc when cacheable region ->
    cached_frag ctx fc ~tag:'R' region (fun () -> region_frag_raw ctx region)
  | _ -> region_frag_raw ctx region

and region_frag_raw ctx region =
  match region with
  | Ir.R_ops [] -> Stg.frag_empty ()
  | Ir.R_ops ids -> ops_frag ctx ids
  | Ir.R_seq rs -> seq_frag ctx rs
  | Ir.R_if _ -> seq_frag ctx [ region ]
  | Ir.R_loop { merges; cond_r; cond_edge; body; elps; _ } ->
    loop_frag ctx ~merges ~cond_r ~cond_edge ~body ~elps

(* Sequential children, with parallel grouping of independent siblings and
   conditional forks folded onto the running fragment. *)
and seq_frag ctx children =
  let n = List.length children in
  let children = Array.of_list children in
  let writes = Array.map region_writes children in
  let reads = Array.map (region_reads ctx) children in
  let level = Array.make n 1 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if not (Iset.is_empty (Iset.inter reads.(j) writes.(i))) then
        level.(j) <- max level.(j) (level.(i) + 1)
    done
  done;
  let groups =
    if ctx.cfg.parallel_regions then begin
      let max_level = Array.fold_left max 1 level in
      List.init max_level (fun l ->
          List.filteri (fun j _ -> level.(j) = l + 1) (Array.to_list children))
      |> List.filter (fun g -> g <> [])
    end
    else List.map (fun c -> [ c ]) (Array.to_list children)
  in
  let cur = ref None in
  let append frag =
    cur := Some (match !cur with None -> frag | Some c -> Stg.seq c frag)
  in
  List.iter
    (fun group ->
      match group with
      | [] -> ()
      | [ Ir.R_if { cond_edge; then_r; else_r; sels } ] ->
        (* Fork directly off the running fragment: no dispatch state. *)
        let prefix = match !cur with Some c -> c | None -> Stg.frag_empty () in
        let then_f = region_frag ctx then_r in
        let else_f = region_frag ctx else_r in
        let forked = Stg.fork prefix ~cond_edge ~then_f ~else_f in
        cur := Some forked;
        if sels <> [] then append (ops_frag ctx sels)
      | [ single ] -> append (region_frag ctx single)
      | members ->
        let frags = List.map (standalone_frag ctx) members in
        append (par_fold ctx frags))
    groups;
  match !cur with Some f -> f | None -> Stg.frag_empty ()

(* A fragment usable as one side of a parallel product: conditionals get
   their own dispatch state.  Cached under a tag distinct from [region_frag]
   so the two call sites can never serve each other's entries. *)
and standalone_frag ctx region =
  match region with
  | Ir.R_if _ -> (
    match ctx.frags with
    | Some fc when cacheable region ->
      cached_frag ctx fc ~tag:'P' region (fun () -> standalone_frag_raw ctx region)
    | _ -> standalone_frag_raw ctx region)
  | _ -> region_frag ctx region

and standalone_frag_raw ctx region =
  match region with
  | Ir.R_if { cond_edge; then_r; else_r; sels } ->
    let then_f = region_frag ctx then_r in
    let else_f = region_frag ctx else_r in
    let forked = Stg.fork (Stg.frag_empty ()) ~cond_edge ~then_f ~else_f in
    if sels = [] then forked else Stg.seq forked (ops_frag ctx sels)
  | _ -> region_frag ctx region

and par_fold ctx frags =
  match frags with
  | [] -> Stg.frag_empty ()
  | first :: rest ->
    List.fold_left
      (fun acc frag ->
        let conflict =
          not (Iset.is_empty (Iset.inter (frag_fus ctx acc) (frag_fus ctx frag)))
        in
        if conflict then Stg.seq acc frag
        else
          match Stg.par ~max_states:ctx.cfg.max_product_states acc frag with
          | product -> product
          | exception Stg.Product_too_large -> Stg.seq acc frag)
      first rest

and loop_frag ctx ~merges ~cond_r ~cond_edge ~body ~elps =
  let cond_specs = List.map Leaf.normal (Ir.region_nodes cond_r) in
  let body_f = region_frag ctx body in
  let f, loop_exits =
    if ctx.cfg.fold_loop_cond then begin
      (* Header: merge inits chained with the first condition evaluation.
         Latch: merge register writes chained with the next iteration's
         condition.  The back edge re-enters the body directly. *)
      let header = leaf_frag ctx (List.map Leaf.merge_init merges @ cond_specs) in
      let latch = leaf_frag ctx (List.map Leaf.merge_back merges @ cond_specs) in
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
    end
    else begin
      (* Baseline: pre-header, separate condition header re-entered every
         iteration, body, latch. *)
      let pre = leaf_frag ctx (List.map Leaf.merge_init merges) in
      let condf = leaf_frag ctx cond_specs in
      let latch = leaf_frag ctx (List.map Leaf.merge_back merges) in
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
    end
  in
  List.iter (fun (s, g) -> Stg.frag_add_exit f ~src:s g) loop_exits;
  if elps = [] then f else Stg.seq f (ops_frag ctx elps)

let schedule ?frags cfg (program : Graph.program) ~delay ~res =
  let g = program.Graph.graph in
  let cfg_fp = config_fingerprint cfg in
  let check = check_enabled () in
  let top = if cfg.flatten_ifs then flatten_cached program.Graph.top else program.Graph.top in
  let build frags (delay, res) =
    let analysis = Analysis.create g in
    let ctx = { cfg; analysis; delay; res; frags; cfg_fp; check } in
    Stg.instantiate (region_frag ctx top) ~clock_ns:cfg.clock_ns
  in
  let stg =
    build frags
      (match frags with Some _ -> tabulate g ~delay ~res top | None -> (delay, res))
  in
  (match frags with
  | Some _ when check ->
    (* Cold reference: the same schedule with fragment reuse disabled, read
       through the caller's own model closures, must be bit-identical —
       splicing and tabulation are implementation details, never semantic
       ones. *)
    let cold = build None (delay, res) in
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
   current digests, outermost first.  A reschedule after a move can only
   change the fragments of regions whose digest changed; the
   footprint-classification tests assert that those regions all intersect
   the move's resource footprint. *)
let region_report cfg (program : Graph.program) ~delay ~res =
  let g = program.Graph.graph in
  let cfg_fp = config_fingerprint cfg in
  let top = if cfg.flatten_ifs then flatten_cached program.Graph.top else program.Graph.top in
  let rec walk acc region =
    let acc =
      if cacheable region then
        (Ir.region_nodes region, digest_region ~g ~cfg_fp ~delay ~res ~tag:'R' region)
        :: acc
      else acc
    in
    match region with
    | Ir.R_ops _ -> acc
    | Ir.R_seq rs -> List.fold_left walk acc rs
    | Ir.R_if { then_r; else_r; _ } -> walk (walk acc then_r) else_r
    | Ir.R_loop { cond_r; body; _ } -> walk (walk acc body) cond_r
  in
  List.rev (walk [] top)

let min_enc_schedule style ~clock_ns (program : Graph.program) library =
  let delay, res = Models.parallel_models program.Graph.graph library in
  schedule (config_of_style style ~clock_ns) program ~delay ~res
