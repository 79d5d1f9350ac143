module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Sim = Impact_sim.Sim
module Stg = Impact_sched.Stg
module Enc = Impact_sched.Enc
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Muxnet = Impact_rtl.Muxnet
module Lifetime = Impact_rtl.Lifetime
module Controller = Impact_rtl.Controller
module Module_library = Impact_modlib.Module_library
module Shardtbl = Impact_util.Shardtbl

(* --- Schedule-level terms --------------------------------------------------

   Everything the estimator derives from (schedule, workload profile,
   graph) alone — independent of the binding and the datapath.  One record
   per distinct schedule, memoised by {!Stg.key}: candidates that
   reuse or re-derive an already-seen schedule skip the Markov-chain
   solves, the activation scan, the controller synthesis and the Sel/wire
   sweeps entirely. *)
type stg_terms = {
  st_enc : float;
  st_act : float array;  (* expected activations per pass, per node *)
  st_glitch : float array;  (* activation-weighted glitch accumulator *)
  st_sel : float;  (* Sel-mux energy per pass *)
  st_wire : float;  (* wire energy per pass *)
  st_ctrl : float;  (* controller energy per pass, binary encoding *)
  st_critical : float;
}

type ctx = {
  c_run : Sim.run;
  (* All memo tables are sharded (hash-of-key -> shard lock): solutions are
     priced from several domains at once under Parallel.map, and a single
     estimator mutex serialises the whole pool.

     The schedule-level memos are split in two so the search's feasibility
     pre-check stays cheap: [enc_tbl] holds just the expected cycle count
     (one Markov solve — all any infeasible candidate ever pays), while
     [stg_tbl] holds the full terms record and is only consulted once a
     candidate survives to power estimation. *)
  unit_sw : (Ir.node_id list, Traces.unit_stats) Shardtbl.t;
      (* one entry per node set (canonical sorted key): input and output
         switching are produced together from a single trace merge *)
  value_sw : (Datapath.key, float) Shardtbl.t;
  enc_tbl : (string, float) Shardtbl.t;
  stg_tbl : (string, stg_terms) Shardtbl.t;
  lifetime_tbl : (string, Lifetime.t) Shardtbl.t;
  (* One-slot caches keyed by physical identity: the search prices many
     candidates against one reused schedule — and looks each candidate's
     schedule up several times (ENC, legality, estimate) — so the common
     case skips both building the key and the table. *)
  last_key : (Stg.t * string) option Atomic.t;
  last_enc : (Stg.t * float) option Atomic.t;
  last_terms : (Stg.t * stg_terms) option Atomic.t;
  last_lifetime : (Stg.t * Lifetime.t) option Atomic.t;
  consumer_count : int array;  (* data fanout per node *)
  memo_cost : int Atomic.t;
      (* accumulated wall time (ns) spent computing trace-memo entries on
         the miss path — the measured recompute cost of the memo contents,
         recorded into the persistent store's envelopes so eviction can
         rank artifacts by cost per byte.  Shared by every fork of this
         context (the Atomic itself is copied by reference). *)
  check_ledger : bool;  (* IMPACT_CHECK_LEDGER: cross-check every reprice *)
  c_eff : int array option;
      (* per-node effective (active) output widths from the range analysis;
         when present, width-scaled switching terms clamp to them.  Fixed at
         context creation so every fork, memo entry and ledger reprice of
         this run prices with the same widths. *)
  (* A forked replica reads through to its parent's memo tables but writes
     only to its own, so speculative probes never publish into shared
     state mid-iteration; [merge] folds a replica's entries back in at a
     deterministic point chosen by the coordinator. *)
  c_parent : ctx option;
}

let create_ctx ?eff run =
  let g = run.Sim.program.Impact_cdfg.Graph.graph in
  (match eff with
  | Some a when Array.length a <> Graph.node_count g ->
    invalid_arg "Estimate.create_ctx: effective widths do not match the program"
  | _ -> ());
  {
    c_run = run;
    unit_sw = Shardtbl.create ~equal:(List.equal Int.equal) 64;
    value_sw = Shardtbl.create ~equal:Datapath.key_equal 128;
    enc_tbl = Shardtbl.create ~equal:String.equal 64;
    stg_tbl = Shardtbl.create ~equal:String.equal 64;
    lifetime_tbl = Shardtbl.create ~equal:String.equal 64;
    last_key = Atomic.make None;
    last_enc = Atomic.make None;
    last_terms = Atomic.make None;
    last_lifetime = Atomic.make None;
    consumer_count = Graph.data_fanout g;
    memo_cost = Atomic.make 0;
    check_ledger =
      (match Sys.getenv_opt "IMPACT_CHECK_LEDGER" with
      | Some ("" | "0") | None -> false
      | Some _ -> true);
    c_eff = eff;
    c_parent = None;
  }

(* Effective switching width of one node's output, never above the declared
   width. *)
let eff_node ctx ~decl nid =
  match ctx.c_eff with None -> decl | Some a -> min decl a.(nid)

(* Effective width of a shared resource written by a set of nodes: the
   widest active slice any contributing node's output can drive.  A site
   with no contributing nodes carries no range information and keeps its
   declared width. *)
let eff_nodes ctx ~decl nids =
  match (ctx.c_eff, nids) with
  | None, _ | _, [] -> decl
  | Some a, _ :: _ ->
    min decl (List.fold_left (fun acc nid -> max acc a.(nid)) 1 nids)

(* Effective width of one operand edge: the source node's active width,
   never above the edge's declared width.  Sources without per-node facts
   (constants, primary inputs) keep the declared width. *)
let eff_edge a g eid =
  let e = Graph.edge g eid in
  match e.Ir.source with
  | Ir.From_node src -> min e.Ir.e_width a.(src)
  | Ir.Const _ | Ir.Primary_input _ -> e.Ir.e_width

(* Effective datapath width of an FU executing [ops]: the clamp follows
   each operation's input edges back to their sources — a comparator's
   1-bit result says nothing about its operand traffic — and the output
   bits count too, mirroring [Binding.op_width]. *)
let eff_fu ctx ~decl ops =
  match (ctx.c_eff, ops) with
  | None, _ | _, [] -> decl
  | Some a, _ :: _ ->
    let g = ctx.c_run.Sim.program.Impact_cdfg.Graph.graph in
    let w =
      List.fold_left
        (fun acc nid ->
          let n = Graph.node g nid in
          Array.fold_left
            (fun acc eid -> max acc (eff_edge a g eid))
            (max acc (min n.Ir.n_width a.(nid)))
            n.Ir.inputs)
        1 ops
    in
    min decl w

(* Effective width of the operand traffic through a steering network
   feeding FU input port [port] of [ops]. *)
let eff_fu_port ctx ~decl ops ~port =
  match (ctx.c_eff, ops) with
  | None, _ | _, [] -> decl
  | Some a, _ :: _ ->
    let g = ctx.c_run.Sim.program.Impact_cdfg.Graph.graph in
    let w =
      List.fold_left
        (fun acc nid ->
          let inputs = (Graph.node g nid).Ir.inputs in
          if port < Array.length inputs then max acc (eff_edge a g inputs.(port))
          else decl)
        1 ops
    in
    min decl w

(* Replica fork/merge.  Memo values are pure functions of their keys, so a
   replica sharing reads with its parent is value-transparent: hits only
   skip recomputation, they never change a result.  The fresh one-slot
   caches matter — they are keyed by physical identity and must not leak
   pointers between domains racing on [Atomic.set]. *)
let fork parent =
  {
    parent with
    unit_sw = Shardtbl.create ~shards:1 ~equal:(List.equal Int.equal) 32;
    value_sw = Shardtbl.create ~shards:1 ~equal:Datapath.key_equal 32;
    enc_tbl = Shardtbl.create ~shards:1 ~equal:String.equal 32;
    stg_tbl = Shardtbl.create ~shards:1 ~equal:String.equal 32;
    lifetime_tbl = Shardtbl.create ~shards:1 ~equal:String.equal 32;
    last_key = Atomic.make None;
    last_enc = Atomic.make None;
    last_terms = Atomic.make None;
    last_lifetime = Atomic.make None;
    c_parent = Some parent;
  }

let merge ~into child =
  if child.c_run != into.c_run then
    invalid_arg "Estimate.merge: replica of a different run";
  let publish tbl src =
    Shardtbl.iter (fun k v -> ignore (Shardtbl.add_if_absent tbl k v)) src
  in
  publish into.unit_sw child.unit_sw;
  publish into.value_sw child.value_sw;
  publish into.enc_tbl child.enc_tbl;
  publish into.stg_tbl child.stg_tbl;
  publish into.lifetime_tbl child.lifetime_tbl

let run ctx = ctx.c_run

(* Unit memo keys are canonicalised (sorted) so permuted-but-equal operation
   groups hit the same entry; the merged trace only depends on the set. *)
let canonical_ops ops = List.sort Int.compare ops

(* Memo lookups read through the replica chain (own table first, then
   ancestors) and publish to the local table only; the key is hashed once
   for the whole chain. *)
let rec find_through get ctx ~hash key =
  match Shardtbl.find_opt ~hash (get ctx) key with
  | Some v -> Some v
  | None -> (
    match ctx.c_parent with
    | None -> None
    | Some p -> find_through get p ~hash key)

let shard_memo get ctx key compute =
  let hash = Shardtbl.hash key in
  match find_through get ctx ~hash key with
  | Some v -> v
  | None -> Shardtbl.add_if_absent ~hash (get ctx) key (compute ())

(* Miss-path computations are timed into [memo_cost]; the timer only runs
   when a k-way trace merge is about to, so the hot (hit) path is
   untouched. *)
let timed_memo ctx f () =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  if dt_ns > 0 then ignore (Atomic.fetch_and_add ctx.memo_cost dt_ns);
  v

let unit_sw ctx ops =
  let ops = canonical_ops ops in
  shard_memo (fun c -> c.unit_sw) ctx ops
    (timed_memo ctx (fun () -> Traces.unit_switching_stats ctx.c_run ops))

let unit_input_sw ctx ops = (unit_sw ctx ops).Traces.us_input_sw
let unit_output_sw ctx ops = (unit_sw ctx ops).Traces.us_output_sw

let value_sw ctx key =
  shard_memo
    (fun c -> c.value_sw)
    ctx key
    (timed_memo ctx (fun () -> Traces.value_switching ctx.c_run ~key))

let unit_input_switching = unit_input_sw
let unit_output_switching = unit_output_sw
let value_switching = value_sw

let memo_entries ctx = Shardtbl.length ctx.unit_sw + Shardtbl.length ctx.value_sw
let memo_cost_ns ctx = Atomic.get ctx.memo_cost

(* --- Persistable memo snapshots ---------------------------------------------

   The trace memos are pure functions of (run, key), so their contents are
   a reusable artifact of the (program, workload) pair: a warm-miss request
   — same simulation, different objective or laxity — starts its search
   with a hot estimator by seeding these entries instead of re-merging
   traces.  Snapshots are canonically sorted so equal contents serialise to
   equal bytes. *)

type memo_snapshot = {
  ms_units : (Ir.node_id list * Traces.unit_stats) list;
  ms_values : (Datapath.key * float) list;
}

let export_memos ctx =
  let units = ref [] and values = ref [] in
  Shardtbl.iter (fun k v -> units := (k, v) :: !units) ctx.unit_sw;
  Shardtbl.iter (fun k v -> values := (k, v) :: !values) ctx.value_sw;
  { ms_units = List.sort compare !units; ms_values = List.sort compare !values }

(* [check] recomputes every seeded entry from the traces and requires exact
   (bit-level) agreement — the seeding analogue of IMPACT_STORE_CHECK.
   Without it, trust is the store envelope's checksum plus the key's
   store-version: memo values are pure, so a valid entry can only disagree
   if the estimator's own code changed under an unbumped version. *)
let seed_memos ?(check = false) ctx snapshot =
  List.iter
    (fun (ops, stats) ->
      if check && Traces.unit_switching_stats ctx.c_run ops <> stats then
        failwith "impact store: seeded unit-switching memo diverges from the traces";
      ignore (Shardtbl.add_if_absent ctx.unit_sw ops stats))
    snapshot.ms_units;
  List.iter
    (fun (key, sw) ->
      if check && Traces.value_switching ctx.c_run ~key <> sw then
        failwith "impact store: seeded value-switching memo diverges from the traces";
      ignore (Shardtbl.add_if_absent ctx.value_sw key sw))
    snapshot.ms_values

(* One-slot physical-identity caches.  Publishing is racy by design: both
   domains compute equal values and either pair may stick. *)
let key_of ctx (stg : Stg.t) =
  match Atomic.get ctx.last_key with
  | Some (s, k) when s == stg -> k
  | _ ->
    let k = Stg.key stg in
    Atomic.set ctx.last_key (Some (stg, k));
    k

let cached_by_stg ctx slot get (stg : Stg.t) compute =
  match Atomic.get slot with
  | Some (s, v) when s == stg -> v
  | _ ->
    let v = shard_memo get ctx (key_of ctx stg) compute in
    Atomic.set slot (Some (stg, v));
    v

(* --- Switching floors and glitch model -------------------------------------- *)

(* Switching floors: even a stable unit draws some internal/clock charge. *)
let floor_sw sw = Float.max 0.02 sw

(* --- Schedule-level term computation ---------------------------------------- *)

let stg_enc ctx stg =
  cached_by_stg ctx ctx.last_enc (fun c -> c.enc_tbl) stg (fun () ->
      Enc.analytic stg ctx.c_run.Sim.profile)

let compute_stg_terms ctx stg =
  let g = ctx.c_run.Sim.program.Graph.graph in
  let profile = ctx.c_run.Sim.profile in
  let enc = stg_enc ctx stg in
  let visits = Enc.expected_visits stg profile in
  (* Expected activations per pass and activation-weighted glitch depth,
     per node. *)
  let nn = Graph.node_count g in
  let act = Array.make nn 0. in
  let glitch_acc = Array.make nn 0. in
  Stg.iter_firings stg ~f:(fun s fr ->
      let p = Enc.guard_probability profile fr.Stg.f_guard in
      let a = visits.(s) *. p in
      act.(fr.Stg.f_node) <- act.(fr.Stg.f_node) +. a;
      glitch_acc.(fr.Stg.f_node) <-
        glitch_acc.(fr.Stg.f_node)
        +. (a *. Module_library.glitch_factor fr.Stg.f_chain_pos));
  (* Sel muxes (2-to-1 each). *)
  let e_sel = ref 0. in
  Graph.iter_nodes g ~f:(fun n ->
      match n.Ir.kind with
      | Ir.Op_select ->
        let sw = floor_sw (value_sw ctx (Datapath.K_node n.Ir.n_id)) in
        e_sel :=
          !e_sel
          +. act.(n.Ir.n_id)
             *. Module_library.mux2_cap
                  ~width:(eff_node ctx ~decl:n.Ir.n_width n.Ir.n_id)
             *. sw
      | _ -> ());
  (* Wiring: fanout load of every active value wire. *)
  let e_wire = ref 0. in
  Graph.iter_nodes g ~f:(fun n ->
      let nid = n.Ir.n_id in
      if act.(nid) > 0. then
        e_wire :=
          !e_wire
          +. act.(nid)
             *. float_of_int ctx.consumer_count.(nid)
             *. Module_library.wire_cap_per_fanout
             *. (float_of_int (eff_node ctx ~decl:n.Ir.n_width nid) /. 16.)
             *. floor_sw (value_sw ctx (Datapath.K_node nid)));
  (* Controller (binary encoding assumed by the estimator); the transition
     probabilities and visit counts computed above are reused instead of
     re-solving the chain inside [expected_code_switching]. *)
  let controller = Controller.synthesize stg Controller.Binary in
  let probs = Enc.transition_probabilities stg profile in
  let e_ctrl =
    enc
    *. (Controller.decode_cap_per_cycle controller
       +. Module_library.controller_ff_cap
          *. Controller.expected_code_switching ~probs ~visits controller profile)
  in
  {
    st_enc = enc;
    st_act = act;
    st_glitch = glitch_acc;
    st_sel = !e_sel;
    st_wire = !e_wire;
    st_ctrl = e_ctrl;
    st_critical = Stg.critical_path_ns stg;
  }

let stg_terms ctx stg =
  cached_by_stg ctx ctx.last_terms (fun c -> c.stg_tbl) stg (fun () -> compute_stg_terms ctx stg)

let lifetime ctx stg =
  cached_by_stg ctx ctx.last_lifetime (fun c -> c.lifetime_tbl) stg (fun () ->
      Lifetime.analyse ctx.c_run.Sim.program stg)

(* --- Per-resource terms ------------------------------------------------------ *)

let mean_glitch st nid =
  if st.st_act.(nid) <= 0. then 1. else st.st_glitch.(nid) /. st.st_act.(nid)

let fu_term ctx st b fu =
  let ops = Binding.fu_ops b fu in
  let cap =
    Module_library.scaled_cap (Binding.fu_module b fu)
      ~width:(eff_fu ctx ~decl:(Binding.fu_width b fu) ops)
  in
  let sw = floor_sw (unit_input_sw ctx ops) in
  let act = st.st_act in
  let activations = List.fold_left (fun acc nid -> acc +. act.(nid)) 0. ops in
  let glitch =
    if activations <= 0. then 1.
    else
      List.fold_left (fun acc nid -> acc +. (act.(nid) *. mean_glitch st nid)) 0. ops
      /. activations
  in
  activations *. cap *. sw *. glitch

let reg_clock_term b reg = Module_library.register_clock_cap ~width:(Binding.reg_width b reg)

let reg_write_term ctx st b reg =
  match Binding.reg_values b reg with
  | [] -> 0.
  | producers ->
    let width = eff_nodes ctx ~decl:(Binding.reg_width b reg) producers in
    let writes = List.fold_left (fun acc nid -> acc +. st.st_act.(nid)) 0. producers in
    let sw = floor_sw (unit_output_sw ctx producers) in
    writes *. Module_library.register_write_cap ~width *. sw

(* Steering networks: Equation (7) activity x access rate. *)
let net_term ctx st dp idx =
  let b = Datapath.binding dp in
  let net = Datapath.network dp idx in
  let stats = Netstats.network_stats ~value_sw:(value_sw ctx) ctx.c_run dp idx in
  let tree_act =
    Muxnet.tree_activity net.Datapath.net
      ~a:(fun i -> stats.Netstats.a.(i))
      ~p:(fun i -> stats.Netstats.p.(i))
  in
  let port_nodes, eff_width =
    let decl = net.Datapath.net_width in
    match net.Datapath.net_port with
    | Datapath.P_fu_input (fu, port) ->
      let ops = Binding.fu_ops b fu in
      (ops, eff_fu_port ctx ~decl ops ~port)
    | Datapath.P_reg_write reg ->
      let producers = Binding.reg_values b reg in
      (producers, eff_nodes ctx ~decl producers)
  in
  let accesses =
    List.fold_left (fun acc nid -> acc +. st.st_act.(nid)) 0. port_nodes
  in
  accesses *. tree_act *. Module_library.mux2_cap ~width:eff_width

(* --- The ledger -------------------------------------------------------------- *)

(* Per-resource terms are float arrays aligned with the one canonical order
   [price_ledger] sums in — ascending unit ids, ascending register ids,
   network index order — beside the ids (and ports) that name them, so a
   ledger costs a word per term and totals add the same floats in the same
   order whichever path filled them. *)
type ledger = {
  lg_stg : Stg.t;  (* the schedule [lg_terms] belongs to, physically *)
  lg_terms : stg_terms;
  lg_fu_ids : int array;
  lg_fu : float array;
  lg_reg_ids : int array;
  lg_reg_write : float array;
  lg_reg_clock : float array;
  lg_net_ports : Datapath.port array;
  lg_net : float array;
}

type footprint = { fp_fus : int list; fp_regs : int list }

let can_reprice prev ~stg = prev.lg_stg == stg

let port_label = function
  | Datapath.P_fu_input (fu, port) -> Printf.sprintf "net fu%d port %d" fu port
  | Datapath.P_reg_write reg -> Printf.sprintf "net reg %d" reg

let ledger_terms lg =
  let terms label ids values =
    Array.to_list (Array.mapi (fun i id -> (label id, values.(i))) ids)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let st = lg.lg_terms in
  let acts =
    Array.to_list st.st_act
    |> List.mapi (fun nid v -> (Printf.sprintf "act n%d" nid, v))
  in
  (("enc", st.st_enc) :: ("sel", st.st_sel) :: ("wire", st.st_wire)
  :: ("ctrl", st.st_ctrl)
  :: ("critical-ns", st.st_critical)
  :: terms (Printf.sprintf "fu %d") lg.lg_fu_ids lg.lg_fu)
  @ terms (Printf.sprintf "reg-write %d") lg.lg_reg_ids lg.lg_reg_write
  @ terms (Printf.sprintf "reg-clock %d") lg.lg_reg_ids lg.lg_reg_clock
  @ terms port_label lg.lg_net_ports lg.lg_net
  @ acts

type t = {
  est_enc : float;
  est_breakdown : Breakdown.t;
  est_power : float;
  est_vdd : float;
  est_critical_ns : float;
}

(* Totals are always produced from a ledger by this one function, summing
   each term array in its canonical order (ascending unit ids, ascending
   register ids, network index order).  A delta-repriced ledger therefore totals to
   the bit-identical figure a from-scratch estimate would produce: carried
   terms are the very floats the full path would recompute, and the
   summation order is shared. *)
let price_ledger ~vdd lg =
  let st = lg.lg_terms in
  let enc = st.st_enc in
  let sum = Array.fold_left ( +. ) 0. in
  let e_fu = sum lg.lg_fu in
  let e_reg = ref 0. and clock_cap = ref 0. in
  Array.iteri
    (fun i w ->
      e_reg := !e_reg +. w;
      clock_cap := !clock_cap +. lg.lg_reg_clock.(i))
    lg.lg_reg_write;
  let e_reg = !e_reg and clock_cap = !clock_cap in
  let e_net = sum lg.lg_net in
  let e_clock = enc *. clock_cap in
  (* Per-cycle energy at nominal supply. *)
  let per_cycle e = if enc <= 0. then 0. else e /. enc in
  let breakdown =
    {
      Breakdown.p_fu = per_cycle e_fu;
      p_reg = per_cycle e_reg;
      p_mux = per_cycle (st.st_sel +. e_net);
      p_ctrl = per_cycle st.st_ctrl;
      p_clock = per_cycle e_clock;
      p_wire = per_cycle st.st_wire;
    }
  in
  {
    est_enc = enc;
    est_breakdown = breakdown;
    est_power = Breakdown.total breakdown *. Vdd.power_factor vdd;
    est_vdd = vdd;
    est_critical_ns = st.st_critical;
  }

let build_ledger ctx ~stg ~dp =
  let b = Datapath.binding dp in
  let st = stg_terms ctx stg in
  let fu_ids = Array.of_list (Binding.fu_ids b) in
  let reg_ids = Array.of_list (Binding.reg_ids b) in
  let nets = Datapath.networks dp in
  {
    lg_stg = stg;
    lg_terms = st;
    lg_fu_ids = fu_ids;
    lg_fu = Array.map (fu_term ctx st b) fu_ids;
    lg_reg_ids = reg_ids;
    lg_reg_write = Array.map (reg_write_term ctx st b) reg_ids;
    lg_reg_clock = Array.map (reg_clock_term b) reg_ids;
    lg_net_ports = Array.map (fun net -> net.Datapath.net_port) nets;
    lg_net = Array.init (Array.length nets) (net_term ctx st dp);
  }

let estimate_ledger ctx ~stg ~dp ?(vdd = Vdd.nominal) () =
  let lg = build_ledger ctx ~stg ~dp in
  (price_ledger ~vdd lg, lg)

let estimate ctx ~stg ~dp ?vdd () = fst (estimate_ledger ctx ~stg ~dp ?vdd ())

(* --- Delta re-pricing -------------------------------------------------------- *)

let check_against_full ctx ~stg ~dp ~vdd est =
  let full, _ = estimate_ledger ctx ~stg ~dp ~vdd () in
  let close a b = abs_float (a -. b) <= 1e-9 *. Float.max 1. (Float.max (abs_float a) (abs_float b)) in
  let bd = est.est_breakdown and fbd = full.est_breakdown in
  if
    not
      (close est.est_power full.est_power
      && close bd.Breakdown.p_fu fbd.Breakdown.p_fu
      && close bd.Breakdown.p_reg fbd.Breakdown.p_reg
      && close bd.Breakdown.p_mux fbd.Breakdown.p_mux
      && close bd.Breakdown.p_ctrl fbd.Breakdown.p_ctrl
      && close bd.Breakdown.p_clock fbd.Breakdown.p_clock
      && close bd.Breakdown.p_wire fbd.Breakdown.p_wire)
  then
    failwith
      (Printf.sprintf
         "Estimate.reprice diverged from full estimate: delta %.17g vs full %.17g"
         est.est_power full.est_power)

(* Ports in build order: every unit port, by unit then port, before every
   register write. *)
let port_compare a b =
  match (a, b) with
  | Datapath.P_fu_input (f, p), Datapath.P_fu_input (g, q) ->
    if f <> g then Int.compare f g else Int.compare p q
  | P_reg_write r, P_reg_write s -> Int.compare r s
  | P_fu_input _, P_reg_write _ -> -1
  | P_reg_write _, P_fu_input _ -> 1

let reprice ctx ~prev ~footprint ~stg ~dp ?(vdd = Vdd.nominal) () =
  if not (can_reprice prev ~stg) then
    (* The move rescheduled: every activation-weighted term changed, so a
       full (memoised) estimate is the delta. *)
    estimate_ledger ctx ~stg ~dp ~vdd ()
  else begin
    let b = Datapath.binding dp in
    let st = prev.lg_terms in
    let touched_fu fu = List.exists (Int.equal fu) footprint.fp_fus in
    let touched_reg reg = List.exists (Int.equal reg) footprint.fp_regs in
    let touched_port = function
      | Datapath.P_fu_input (fu, _) -> touched_fu fu
      | Datapath.P_reg_write reg -> touched_reg reg
    in
    (* Each untouched resource carries [prev]'s term, found by binary search
       of [prev]'s sorted ids (networks are built in ascending port order);
       touched or new ones are priced afresh. *)
    let carry ~compare ids ~touched prev_ids prev_terms fresh =
      let rec find id lo hi =
        if lo >= hi then None
        else
          let mid = (lo + hi) / 2 in
          let c = compare prev_ids.(mid) id in
          if c = 0 then Some mid else if c < 0 then find id (mid + 1) hi else find id lo mid
      in
      Array.mapi
        (fun i id ->
          match if touched id then None else find id 0 (Array.length prev_ids) with
          | Some j -> prev_terms.(j)
          | None -> fresh i id)
        ids
    in
    let fu_ids = Array.of_list (Binding.fu_ids b) in
    let reg_ids = Array.of_list (Binding.reg_ids b) in
    let net_ports = Array.map (fun net -> net.Datapath.net_port) (Datapath.networks dp) in
    let carry_reg prev_terms fresh =
      carry ~compare:Int.compare reg_ids ~touched:touched_reg prev.lg_reg_ids prev_terms (fun _ reg -> fresh reg)
    in
    let lg =
      {
        prev with
        lg_fu_ids = fu_ids;
        lg_fu =
          carry ~compare:Int.compare fu_ids ~touched:touched_fu prev.lg_fu_ids prev.lg_fu (fun _ fu ->
              fu_term ctx st b fu);
        lg_reg_ids = reg_ids;
        lg_reg_write = carry_reg prev.lg_reg_write (reg_write_term ctx st b);
        lg_reg_clock = carry_reg prev.lg_reg_clock (reg_clock_term b);
        lg_net_ports = net_ports;
        lg_net =
          carry ~compare:port_compare net_ports ~touched:touched_port prev.lg_net_ports prev.lg_net (fun idx _ ->
              net_term ctx st dp idx);
      }
    in
    let est = price_ledger ~vdd lg in
    if ctx.check_ledger then check_against_full ctx ~stg ~dp ~vdd est;
    (est, lg)
  end
