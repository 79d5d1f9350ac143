module Graph = Impact_cdfg.Graph
module Scheduler = Impact_sched.Scheduler
module Stg = Impact_sched.Stg
module Binding = Impact_rtl.Binding
module Datapath = Impact_rtl.Datapath
module Muxnet = Impact_rtl.Muxnet
module Lifetime = Impact_rtl.Lifetime
module Estimate = Impact_power.Estimate
module Netstats = Impact_power.Netstats
module Breakdown = Impact_power.Breakdown
module Vdd = Impact_power.Vdd
module Sim = Impact_sim.Sim
module Fragcache = Impact_sched.Fragcache
module Shardtbl = Impact_util.Shardtbl
module Keybuf = Impact_util.Keybuf

type objective = Minimize_area | Minimize_power

type env = {
  program : Graph.program;
  library : Impact_modlib.Module_library.t;
  sched_config : Scheduler.config;
  est_ctx : Estimate.ctx;
  enc_budget : float;
  objective : objective;
  area_ref : float;
}

type t = {
  binding : Binding.t;
  dp : Datapath.t;
  stg : Stg.t;
  restructured : Datapath.port list;
  enc : float;
  vdd : float;
  est : Estimate.t;
  area : float;
  cost : float;
  ledger : Estimate.ledger option;
}

(* --- Evaluation metrics ---------------------------------------------------- *)

(* Independent atomic counters: candidate evaluation happens on every worker
   domain, and a shared mutex around simple increments is measurable
   contention at that rate. *)
type metrics = {
  m_cache_hits : int Atomic.t;
  m_pruned : int Atomic.t;
  m_rebuilt : int Atomic.t;
  m_delta : int Atomic.t;
}

let create_metrics () =
  {
    m_cache_hits = Atomic.make 0;
    m_pruned = Atomic.make 0;
    m_rebuilt = Atomic.make 0;
    m_delta = Atomic.make 0;
  }

let bump metrics counter =
  match metrics with None -> () | Some m -> Atomic.incr (counter m)

let metrics_counts m =
  ( Atomic.get m.m_cache_hits,
    Atomic.get m.m_pruned,
    Atomic.get m.m_rebuilt,
    Atomic.get m.m_delta )

(* --- Legality -------------------------------------------------------------- *)

let legal_against lt b =
  List.for_all
    (fun reg ->
      List.length (Binding.reg_values b reg) + List.length (Binding.reg_input_names b reg)
      <= 1
      || Lifetime.regs_can_share lt b reg reg)
    (Binding.reg_ids b)

let reg_sharing_legal program stg b = legal_against (Lifetime.analyse program stg) b

let find_network dp port =
  let rec scan i =
    if i >= Datapath.network_count dp then None
    else if (Datapath.network dp i).Datapath.net_port = port then Some i
    else scan (i + 1)
  in
  scan 0

let apply_restructuring env dp ports =
  let run = Estimate.run env.est_ctx in
  let value_sw = Estimate.value_switching env.est_ctx in
  List.filter
    (fun port ->
      match find_network dp port with
      | None -> false
      | Some idx ->
        let net = Datapath.network dp idx in
        if Array.length net.Datapath.net_keys < 3 then false
        else begin
          let stats = Netstats.network_stats ~value_sw run dp idx in
          Muxnet.restructure net.Datapath.net ~ap:(fun i ->
              (stats.Netstats.a.(i), stats.Netstats.p.(i)));
          true
        end)
    ports

(* --- Environment-independent build ----------------------------------------- *)

(* Everything below is a function of (program, sched_config, est_ctx) and the
   candidate (binding, restructured) only — never of the ENC budget or the
   objective.  That is what lets one signature cache serve a whole laxity
   sweep: per-env pricing is cheap arithmetic on these figures. *)
type built = {
  bt_dp : Datapath.t;
  bt_stg : Stg.t;
  bt_restructured : Datapath.port list;
  bt_enc : float;
  bt_critical : float;
  bt_legal : bool;
  bt_area : float;
  bt_delta : (Estimate.ledger * Estimate.footprint) option;
      (* predecessor ledger + move footprint, present when the move kept the
         schedule: the nominal estimate below re-prices only the footprint *)
  bt_nominal : (Estimate.t * Estimate.ledger) option Atomic.t;
      (* the full estimate at nominal supply, computed lazily on the first
         feasible pricing so infeasible candidates never pay for it *)
}

let build ?delta ?frags env ~binding ~restructured ~reuse_stg =
  let dp = Datapath.build binding in
  let restructured = apply_restructuring env dp restructured in
  let stg =
    match reuse_stg with
    | Some stg -> stg
    | None ->
      Scheduler.schedule ?frags env.sched_config env.program
        ~delay:(Datapath.delay_model dp) ~res:(Datapath.resource_model dp)
  in
  let enc = Estimate.stg_enc env.est_ctx stg in
  let critical = Stg.critical_path_ns stg in
  let legal = legal_against (Estimate.lifetime env.est_ctx stg) binding in
  let n_transitions =
    Array.fold_left (fun acc l -> acc + List.length l) 0 stg.Stg.succs
  in
  let area =
    Datapath.total_area dp ~stg_states:(Stg.state_count stg)
      ~stg_transitions:n_transitions
  in
  {
    bt_dp = dp;
    bt_stg = stg;
    bt_restructured = restructured;
    bt_enc = enc;
    bt_critical = critical;
    bt_legal = legal;
    bt_area = area;
    bt_delta = delta;
    bt_nominal = Atomic.make None;
  }

(* --- Per-environment pricing ----------------------------------------------- *)

let price ?metrics env bt =
  let clock = env.sched_config.Scheduler.clock_ns in
  let feasible =
    bt.bt_enc <= env.enc_budget +. 1e-6
    && bt.bt_critical <= clock +. 1e-6
    && bt.bt_legal
  in
  (* Vdd scaling uses the unused ENC budget only: the clock period is a
     system constraint, so within-state slack is not traded for voltage
     (this makes the laxity-1.0 area-optimized design sit at 1.0 normalized
     power, matching the paper's plots).  Shorter schedules — including the
     cycle savings from multiplexer restructuring — translate directly into
     a lower supply. *)
  let stretch =
    if bt.bt_enc <= 0. then 1. else Float.max 1. (env.enc_budget /. bt.bt_enc)
  in
  let vdd = Vdd.scale_for_stretch stretch in
  let est, ledger =
    if not feasible then begin
      (* Feasibility pre-check failed: skip the full estimate entirely. *)
      bump metrics (fun m -> m.m_pruned);
      ( {
          Estimate.est_enc = bt.bt_enc;
          est_breakdown = Breakdown.zero;
          est_power = infinity;
          est_vdd = vdd;
          est_critical_ns = bt.bt_critical;
        },
        None )
    end
    else begin
      let nominal, lg =
        match Atomic.get bt.bt_nominal with
        | Some pair -> pair
        | None ->
          let pair =
            match bt.bt_delta with
            | Some (prev, footprint) when Estimate.can_reprice prev ~stg:bt.bt_stg ->
              bump metrics (fun m -> m.m_delta);
              Estimate.reprice env.est_ctx ~prev ~footprint ~stg:bt.bt_stg
                ~dp:bt.bt_dp ()
            | _ -> Estimate.estimate_ledger env.est_ctx ~stg:bt.bt_stg ~dp:bt.bt_dp ()
          in
          (* Two domains may race here; they compute the same value. *)
          Atomic.set bt.bt_nominal (Some pair);
          pair
      in
      (* The breakdown is at nominal supply; only the total scales with Vdd —
         exactly what [Estimate.estimate ~vdd] would have produced. *)
      ( {
          nominal with
          Estimate.est_power =
            Breakdown.total nominal.Estimate.est_breakdown *. Vdd.power_factor vdd;
          est_vdd = vdd;
        },
        Some lg )
    end
  in
  let cost =
    if not feasible then infinity
    else
      match env.objective with
      | Minimize_area -> bt.bt_area
      | Minimize_power ->
        (* Power first, with a small area tie-break (a tenth of the relative
           area) so equal-power alternatives prefer the smaller datapath —
           this is what keeps the paper's power-optimized designs within
           ~30% area of the area-optimized ones. *)
        est.Estimate.est_power
        *. (1. +. (0.1 *. bt.bt_area /. Float.max 1. env.area_ref))
  in
  {
    binding = Datapath.binding bt.bt_dp;
    dp = bt.bt_dp;
    stg = bt.bt_stg;
    restructured = bt.bt_restructured;
    enc = bt.bt_enc;
    vdd;
    est;
    area = bt.bt_area;
    cost;
    ledger;
  }

(* --- Signature cache ------------------------------------------------------- *)

(* The shared table is what synthesize calls hand around; a forked cache
   adds a private overlay so a speculative probe can cache its own builds
   without sibling probes observing them mid-iteration (visibility order
   is part of the determinism contract).  [commit_cache] publishes the
   overlay at the coordinator's chosen merge point. *)
type cache = {
  cs_shared : (string, built) Shardtbl.t;
  cs_overlay : (string, built) Shardtbl.t option;  (* one shard *)
  cs_frags : Fragcache.t option;
      (* region-fragment memo threaded into every cached-path schedule; a
         signature-cache miss on a Heavy move then only re-schedules the
         regions the move actually perturbed *)
}

let create_cache ?frags () =
  { cs_shared = Shardtbl.create ~equal:String.equal 256; cs_overlay = None; cs_frags = frags }

let frag_cache c = c.cs_frags

let cache_entries c =
  Shardtbl.length c.cs_shared
  + (match c.cs_overlay with None -> 0 | Some o -> Shardtbl.length o)

let fork_cache c =
  {
    cs_shared = c.cs_shared;
    cs_overlay = Some (Shardtbl.create ~shards:1 ~equal:String.equal 64);
    cs_frags = Option.map Fragcache.fork c.cs_frags;
  }

let commit_cache c =
  (match c.cs_overlay with
  | None -> ()
  | Some o ->
    Shardtbl.iter (fun k v -> ignore (Shardtbl.add_if_absent c.cs_shared k v)) o;
    Shardtbl.clear o);
  Option.iter Fragcache.commit c.cs_frags

(* The canonical key of (binding, restructured): the binding's own key
   ({!Binding.add_key}) followed by the restructured ports, each anchored by
   the smallest operation / value id (or input name) of the unit or register
   it feeds, since those ids are history-dependent too. *)
let signature ~binding ~restructured =
  let b = binding in
  (* (tag, ids, name); the tags are disjoint from {!Binding.add_key}'s. *)
  let anchor = function
    | Datapath.P_fu_input (fu, port) -> (
      match Binding.fu_ops b fu with
      | op :: _ -> ('f', [ op; port ], "")
      | [] | (exception Invalid_argument _) -> ('u', [ fu; port ], ""))
    | Datapath.P_reg_write reg -> (
      match (Binding.reg_values b reg, Binding.reg_input_names b reg) with
      | v :: _, _ -> ('r', [ v ], "")
      | [], (_ :: _ as names) -> ('i', [], List.hd (List.sort String.compare names))
      | [], [] | (exception Invalid_argument _) -> ('v', [ reg ], ""))
  in
  let kb = Keybuf.create 512 in
  Binding.add_key kb b;
  List.iter
    (fun (tag, ids, name) ->
      Keybuf.tag kb tag;
      Keybuf.ints kb ids;
      Keybuf.string kb name)
    (List.sort_uniq compare (List.map anchor restructured));
  Keybuf.contents kb

(* --- Rebuild --------------------------------------------------------------- *)

let rebuild ?cache ?metrics ?delta env ~binding ~restructured ~reuse_stg =
  let frags = Option.bind cache (fun c -> c.cs_frags) in
  let fresh () =
    bump metrics (fun m -> m.m_rebuilt);
    build ?delta ?frags env ~binding ~restructured ~reuse_stg
  in
  let bt =
    match (cache, reuse_stg) with
    | None, _ | _, Some _ ->
      (* A supplied schedule is move-specific state, not a function of the
         signature — never cache through it. *)
      fresh ()
    | Some c, None -> (
      let key = signature ~binding ~restructured in
      let hash = Shardtbl.hash key in
      let hit =
        match Option.bind c.cs_overlay (fun o -> Shardtbl.find_opt ~hash o key) with
        | Some _ as h -> h
        | None -> Shardtbl.find_opt ~hash c.cs_shared key
      in
      match hit with
      | Some bt ->
        bump metrics (fun m -> m.m_cache_hits);
        bt
      | None ->
        (* A probe publishes only to its overlay, so sibling probes never
           observe this build before the merge point.  Otherwise
           insert-or-get: when two domains built the same signature
           concurrently, everyone settles on the entry that won the race
           so later pricing is shared. *)
        Shardtbl.add_if_absent ~hash (Option.value c.cs_overlay ~default:c.cs_shared) key (fresh ()))
  in
  price ?metrics env bt

let initial ?cache ?metrics env =
  let binding = Binding.parallel env.program.Graph.graph env.library in
  rebuild ?cache ?metrics env ~binding ~restructured:[] ~reuse_stg:None

let describe t =
  Printf.sprintf
    "fus=%d regs=%d nets=%d states=%d enc=%.2f vdd=%.2f area=%.0f power=%.4f cost=%s"
    (Binding.fu_count t.binding) (Binding.reg_count t.binding)
    (Datapath.network_count t.dp) (Stg.state_count t.stg) t.enc t.vdd t.area
    t.est.Estimate.est_power
    (if t.cost = infinity then "inf" else Printf.sprintf "%.4f" t.cost)

let ops_on_same_fu t a b =
  match (Binding.fu_of t.binding a, Binding.fu_of t.binding b) with
  | Some f1, Some f2 -> f1 = f2
  | _ -> false

let diagnostics env t =
  Impact_verify.Verify.run_all
    (Impact_verify.Verify.input ~name:env.program.Graph.prog_name
       ~program:env.program ~stg:t.stg ~dp:t.dp
       ~run:(Estimate.run env.est_ctx) ?ledger:t.ledger ())
