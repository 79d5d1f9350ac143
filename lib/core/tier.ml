module Graph = Impact_cdfg.Graph
module Scheduler = Impact_sched.Scheduler
module Stg = Impact_sched.Stg
module Sim = Impact_sim.Sim
module Module_library = Impact_modlib.Module_library
module Binding = Impact_rtl.Binding
module Estimate = Impact_power.Estimate
module Store = Impact_store.Store

module Types = struct
  type options = {
    clock_ns : float;
    style : Scheduler.style;
    depth : int;
    max_candidates : int;
    seed : int;
    enable_restructure : bool;
    max_iterations : int;
    jobs : int;
    probes : int;
    delta_reprice : bool;
    range_power : bool;
  }

  type design = {
    d_solution : Solution.t;
    d_objective : Solution.objective;
    d_laxity : float;
    d_enc_min : float;
    d_enc_budget : float;
    d_search : Search.stats;
    d_env : Solution.env;
  }

  type sweep_point = {
    sp_laxity : float;
    sp_a_power : float;
    sp_i_power : float;
    sp_i_area : float;
    sp_a_vdd : float;
    sp_i_vdd : float;
    sp_area_design : design;
    sp_power_design : design;
  }

  type sweep = { sw_base_power : float; sw_base_area : float; sw_points : sweep_point list }
end

include Types

(* --- Keys ------------------------------------------------------------------

   A key is the hex digest of a canonical string that names everything the
   artifact depends on, so a changed input names a new object and stale
   entries are simply never read again. *)

let store_version = 3
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* A request names its program and workload by content, and every key,
   the daemon's flight key and the workload environment's slot derive from
   those two digests.  A program (whose graph is never changed once built,
   as [Scheduler.plan_for] also assumes) is digested once for its life: its
   digest hangs off the graph in an ephemeron table, and goes with it.  A
   workload is digested once per request: the request names its list by a
   [workload_id] and hands that on to every key it builds, so nothing is
   kept between requests. *)
module Programs = Ephemeron.K1.Make (struct
  type t = Graph.t

  let equal = ( == )
  let hash = Graph.node_count
end)

let programs : (Graph.program * string) list Programs.t = Programs.create 16
let programs_lock = Mutex.create ()
let program_digests = Atomic.make 0
let workload_digests = Atomic.make 0

type digest_stats = { dg_programs : int; dg_workloads : int }

let digest_stats () =
  { dg_programs = Atomic.get program_digests; dg_workloads = Atomic.get workload_digests }

(* The digest is computed outside the lock; two threads racing on one
   program compute the same string, and only the first published is kept
   and counted. *)
let program_digest (p : Graph.program) =
  let g = p.Graph.graph in
  let known () = Option.value (Programs.find_opt programs g) ~default:[] in
  match List.assq_opt p (Mutex.protect programs_lock known) with
  | Some d -> d
  | None ->
    let d =
      digest
        ( Graph.nodes g,
          Graph.edges g,
          p.Graph.top,
          p.Graph.prog_inputs,
          p.Graph.prog_outputs,
          p.Graph.prog_name )
    in
    Mutex.protect programs_lock (fun () ->
        let ds = known () in
        match List.assq_opt p ds with
        | Some first -> first
        | None ->
          Atomic.incr program_digests;
          Programs.replace programs g ((p, d) :: ds);
          d)

type workload_id = { wi_passes : (string * int) list list; wi_digest : string option Atomic.t }

let workload_id ?id workload =
  match id with
  | Some id when id.wi_passes == workload -> id
  | Some _ | None -> { wi_passes = workload; wi_digest = Atomic.make None }

(* Digested on first use, so a storeless request, which names no key,
   digests nothing.  Domains racing on one id compute the same string, and
   only the one published is counted. *)
let workload_digest id =
  match Atomic.get id.wi_digest with
  | Some d -> d
  | None ->
    let d = digest id.wi_passes in
    if Atomic.compare_and_set id.wi_digest None (Some d) then begin
      Atomic.incr workload_digests;
      d
    end
    else Option.get (Atomic.get id.wi_digest)

(* The characterisation is a static value: digest it once, not per key. *)
let library_digest =
  let d = lazy (digest (Module_library.all_specs Module_library.default)) in
  fun () -> Lazy.force d

let canonical parts = String.concat "|" ("impact-store" :: string_of_int store_version :: parts)
let traces_key program ~workload =
  Store.key (canonical [ "traces"; program_digest program; workload_digest workload ])

(* Only trajectory-defining knobs participate: [jobs] and [delta_reprice]
   are bit-identity-neutral by construction, so results computed at any
   engine configuration serve every other one. *)
let style_tag = function Scheduler.Wavesched -> "wavesched" | Scheduler.Baseline -> "baseline"

(* [probes=1] is a literal: the field it rendered now always reads 1, and
   keeping it keeps every existing key byte-identical. *)
let options_fingerprint o =
  Printf.sprintf "clock=%h,style=%s,depth=%d,cand=%d,seed=%d,restructure=%b,iter=%d,probes=1%s"
    o.clock_ns (style_tag o.style)
    o.depth o.max_candidates o.seed o.enable_restructure o.max_iterations
    (* Appended only when on so every pre-existing key stays byte-identical
       with range pricing off. *)
    (if o.range_power then ",range_power=true" else "")

let request_key ~options program ~workload request =
  Store.key
    (canonical
       [
         program_digest program;
         workload_digest workload;
         library_digest ();
         options_fingerprint options;
         request;
       ])

let objective_tag = function Solution.Minimize_area -> "area" | Solution.Minimize_power -> "power"

let design_key ~options program ~workload ~objective ~laxity =
  request_key ~options program ~workload
    (Printf.sprintf "design:%s:%h" (objective_tag objective) laxity)

let sweep_key ~options program ~workload ~laxities =
  request_key ~options program ~workload
    (Printf.sprintf "sweep:%s" (String.concat "," (List.map (Printf.sprintf "%h") laxities)))

(* --- The tier contract ------------------------------------------------------ *)

type 'e t = { ns : string; tag : string }

let make ~ns ~tag = { ns; tag }

let encode tier v = Marshal.to_string (tier.tag, v) []

(* The tag is read before any typed field is touched, so a payload written
   under another tag degrades to a miss. *)
let decode tier payload =
  match (Marshal.from_string payload 0 : string * 'e) with
  | tag, v when tag = tier.tag -> Some v
  | _ | (exception _) -> None

let find tier st k = Option.bind (Store.find ~ns:tier.ns st k) (decode tier)

(* The store is a cache: a lost write only costs a later recompute. *)
let put tier st k v = try Store.put ~ns:tier.ns st k (encode tier v) with _ -> ()

let check_enabled () = Impact_util.Env_flag.enabled "IMPACT_STORE_CHECK"

let find_or_compute ?store tier ~key ~restore ~persist ~fingerprint cold =
  match store with
  | None -> cold ()
  | Some st -> (
    let k = key () in
    match Option.bind (find tier st k) (fun e -> try restore e with _ -> None) with
    | Some v ->
      if check_enabled () && fingerprint v <> fingerprint (cold ()) then
        failwith
          (Printf.sprintf "impact store: warm %s entry diverges from a cold recomputation"
             tier.tag);
      v
    | None ->
      let v = cold () in
      put tier st k (persist v);
      v)

(* --- traces: seed, then accumulate ---------------------------------------- *)

let traces_tier : Estimate.memo_snapshot t = make ~ns:"traces" ~tag:"traces"

(* Under IMPACT_STORE_CHECK every seeded entry is recomputed from the traces
   and must agree bit-for-bit; a [Failure] there is a real divergence, any
   other decoding problem is an ordinary miss. *)
let seed_traces ?store program ~workload est_ctx =
  match Option.bind store (fun st -> find traces_tier st (traces_key program ~workload)) with
  | None -> ()
  | Some snapshot -> (
    try Estimate.seed_memos ~check:(check_enabled ()) est_ctx snapshot with
    | Failure _ as e -> raise e
    | _ -> ())

(* The tier accumulates across objectives and laxities: merge this
   context's memos into the persisted snapshot, and skip the write when
   nothing is new. *)
let sync_traces st program ~workload est_ctx =
  try
    let k = traces_key program ~workload in
    let fresh = Estimate.export_memos est_ctx in
    let existing =
      find traces_tier st k |> Option.value ~default:{ Estimate.ms_units = []; ms_values = [] }
    in
    let merge old now =
      List.fold_left
        (fun acc (key, v) -> if List.mem_assoc key acc then acc else (key, v) :: acc)
        old now
      |> List.sort compare
    in
    let merged =
      {
        Estimate.ms_units = merge existing.Estimate.ms_units fresh.Estimate.ms_units;
        ms_values = merge existing.Estimate.ms_values fresh.Estimate.ms_values;
      }
    in
    if merged <> existing then put traces_tier st k merged
  with _ -> ()

(* --- design and sweep: find-or-compute ---------------------------------------

   An entry records the decision (binding, restructured ports, schedule,
   search stats) plus the metrics it priced to.  A warm load replays the
   decision through the search's own evaluation path and cross-checks every
   recorded metric, so any drift reads as a miss. *)

type design_entry = {
  de_binding : Binding.portable;
  de_restructured : Impact_rtl.Datapath.port list;
  de_stg : Stg.t;
  de_stats : Search.stats;
  de_enc_min : float;
  de_enc : float;
  de_vdd : float;
  de_area : float;
  de_cost : float;
  de_ledger : (string * float) list;  (** sorted by term name *)
}

type sweep_entry = {
  se_units : ((Solution.objective * float) * design_entry) list;
  se_base_power : float;
  se_base_area : float;
  se_points : (float * float * float * float * float * float) list;
      (* laxity, a_power, i_power, i_area, a_vdd, i_vdd *)
}

(* Both entries hold portable bindings and search stats; the tags name
   their layout, so entries written with the earlier hash-table bindings
   ("design", "sweep") or with the two batch counters the stats have since
   lost ("design-dense", "sweep-dense") read as misses. *)
let design_tier : design_entry t = make ~ns:Store.default_ns ~tag:"design-dense2"
let sweep_tier : sweep_entry t = make ~ns:Store.default_ns ~tag:"sweep-dense2"

(* The ledger's term listing comes sorted by label, a canonical value that
   survives the round-trip comparison. *)
let ledger_terms_of sol =
  match Solution.ledger sol with None -> [] | Some ledger -> Estimate.ledger_terms ledger

let persist_design d =
  let sol = d.d_solution in
  {
    de_binding = Binding.to_portable sol.Solution.binding;
    de_restructured = sol.Solution.restructured;
    de_stg = sol.Solution.stg;
    de_stats = d.d_search;
    de_enc_min = d.d_enc_min;
    de_enc = sol.Solution.enc;
    de_vdd = sol.Solution.vdd;
    de_area = sol.Solution.area;
    de_cost = sol.Solution.cost;
    de_ledger = ledger_terms_of sol;
  }

let feq a b = a = b || (Float.is_nan a && Float.is_nan b)

let restore_design env ~enc_min ~objective ~laxity entry =
  if not (feq enc_min entry.de_enc_min) then None
  else
    match
      Binding.of_portable env.Solution.program.Graph.graph env.Solution.library entry.de_binding
    with
    | Error _ -> None
    | Ok binding ->
      let sol =
        Solution.rebuild env ~binding ~restructured:entry.de_restructured
          ~reuse_stg:(Some entry.de_stg)
      in
      (* The rebuild adopts the stored schedule as it is, so the schedule
         needs no rendering to be compared: what guards it is that the
         binding priced against it reproduces every recorded figure and
         ledger term. *)
      if
        sol.Solution.stg == entry.de_stg
        && feq sol.Solution.cost entry.de_cost
        && feq sol.Solution.area entry.de_area
        && feq sol.Solution.enc entry.de_enc
        && feq sol.Solution.vdd entry.de_vdd
        && ledger_terms_of sol = entry.de_ledger
      then
        Some
          {
            d_solution = sol;
            d_objective = objective;
            d_laxity = laxity;
            d_enc_min = enc_min;
            d_enc_budget = env.Solution.enc_budget;
            d_search = entry.de_stats;
            d_env = env;
          }
      else None

let design_fingerprint d =
  let sol = d.d_solution in
  Printf.sprintf "%h|%h|%h|%h|%s|%s" sol.Solution.cost sol.Solution.area sol.Solution.enc
    sol.Solution.vdd
    (Stg.signature sol.Solution.stg)
    (String.concat ";" (List.map Moves.describe d.d_search.Search.moves_applied))

(* One unit per distinct (objective, laxity), with the laxity-1.0
   area-optimized base always first (it is the normalization reference even
   when 1.0 is not a sweep point). *)
let sweep_units laxities =
  (Solution.Minimize_area, 1.0)
  :: List.concat_map
       (fun laxity ->
         (if laxity = 1.0 then [] else [ (Solution.Minimize_area, laxity) ])
         @ [ (Solution.Minimize_power, laxity) ])
       laxities

let persist_sweep (sweep, designs) =
  {
    se_units = List.map (fun (unit, d) -> (unit, persist_design d)) designs;
    se_base_power = sweep.sw_base_power;
    se_base_area = sweep.sw_base_area;
    se_points =
      List.map
        (fun p -> (p.sp_laxity, p.sp_a_power, p.sp_i_power, p.sp_i_area, p.sp_a_vdd, p.sp_i_vdd))
        sweep.sw_points;
  }

(* The recorded designs go through the same cross-checks as warm single
   designs; the recorded points must agree with the rebuilt designs wherever
   that needs no re-measuring (areas, supplies).  The power ratios come from
   Measure — skipping it is most of the warm speedup — so they rest on the
   checksummed envelope plus IMPACT_STORE_CHECK. *)
let restore_sweep env0 ~enc_min ~laxities entry =
  let load acc ((objective, laxity), de) =
    let env = { env0 with Solution.enc_budget = laxity *. enc_min; objective } in
    Option.bind acc (fun acc ->
        Option.map
          (fun d -> ((objective, laxity), d) :: acc)
          (restore_design env ~enc_min ~objective ~laxity de))
  in
  if
    List.map fst entry.se_units <> sweep_units laxities
    || List.map (fun (l, _, _, _, _, _) -> l) entry.se_points <> laxities
  then None
  else
    Option.bind (List.fold_left load (Some []) entry.se_units) @@ fun designs ->
    let designs = List.rev designs in
    let design_for key = List.assoc key designs in
    let base_area = entry.se_base_area in
    let point (laxity, a_power, i_power, i_area, a_vdd, i_vdd) =
      {
        sp_laxity = laxity;
        sp_a_power = a_power;
        sp_i_power = i_power;
        sp_i_area = i_area;
        sp_a_vdd = a_vdd;
        sp_i_vdd = i_vdd;
        sp_area_design = design_for (Solution.Minimize_area, laxity);
        sp_power_design = design_for (Solution.Minimize_power, laxity);
      }
    in
    let points = List.map point entry.se_points in
    let consistent p =
      feq p.sp_a_vdd p.sp_area_design.d_solution.Solution.vdd
      && feq p.sp_i_vdd p.sp_power_design.d_solution.Solution.vdd
      && feq p.sp_i_area (p.sp_power_design.d_solution.Solution.area /. base_area)
    in
    if
      feq base_area (design_for (Solution.Minimize_area, 1.0)).d_solution.Solution.area
      && List.for_all consistent points
    then
      Some
        ({ sw_base_power = entry.se_base_power; sw_base_area = base_area; sw_points = points }, designs)
    else None

let sweep_fingerprint (sw, _) =
  Printf.sprintf "%h|%h|%s" sw.sw_base_power sw.sw_base_area
    (String.concat ";"
       (List.map
          (fun p ->
            Printf.sprintf "%h,%h,%h,%h,%h,%h|%s|%s" p.sp_laxity p.sp_a_power p.sp_i_power
              p.sp_i_area p.sp_a_vdd p.sp_i_vdd
              (design_fingerprint p.sp_area_design)
              (design_fingerprint p.sp_power_design))
          sw.sw_points))

(* --- The per-handle workload environment -----------------------------------

   Everything a request derives from (program, workload) alone — the
   behavioural run, the minimum ENC, the parallel reference area and the
   seeded estimation context — serves every objective and laxity, so a
   store handle keeps it and each request copies it with its own budget and
   objective: one simulation serves every binding the synthesis tries, across
   requests as within one.  The memo hangs off the handle through an
   ephemeron, so it lives and dies with that handle.  Each program digest
   has one slot, holding the environment of the last workload and
   environment options (style, clock, range pricing) requested for it; a
   request with others replaces it, so the entries are bounded by the
   programs served.  The slot's mutex makes concurrent requests for one
   program build it once. *)

type workload_env = {
  we_env : Solution.env;
  we_enc_min : float;
  we_published : int Atomic.t;
      (* the context's memo entries when it was seeded or last published *)
}

let env_at we ~objective ~laxity =
  { we.we_env with Solution.enc_budget = laxity *. we.we_enc_min; objective }

let enc_min we = we.we_enc_min

let unshared_env (env, enc_min) =
  {
    we_env = env;
    we_enc_min = enc_min;
    we_published = Atomic.make (Estimate.memo_entries env.Solution.est_ctx);
  }

module Handles = Ephemeron.K1.Make (struct
  type t = Store.t

  let equal = ( == )
  let hash st = Hashtbl.hash (Store.dir st)
end)

type env_slot = {
  es_lock : Mutex.t;
  mutable es_inputs : string;  (* the workload digest and options [es_env] was built for *)
  mutable es_env : workload_env option;
}

let env_slots : (string, env_slot) Hashtbl.t Handles.t = Handles.create 8
let env_slots_lock = Mutex.create ()

type env_memo_stats = { em_builds : int; em_hits : int }

let env_builds = Atomic.make 0
let env_hits = Atomic.make 0
let env_memo_stats () = { em_builds = Atomic.get env_builds; em_hits = Atomic.get env_hits }

let env_slot st program =
  let pd = program_digest program in
  Mutex.protect env_slots_lock (fun () ->
      let slots =
        match Handles.find_opt env_slots st with
        | Some slots -> slots
        | None ->
          let slots = Hashtbl.create 4 in
          Handles.replace env_slots st slots;
          slots
      in
      match Hashtbl.find_opt slots pd with
      | Some slot -> slot
      | None ->
        let slot = { es_lock = Mutex.create (); es_inputs = ""; es_env = None } in
        Hashtbl.replace slots pd slot;
        slot)

let env_inputs ~options ~workload =
  Printf.sprintf "%s|%s|%h|%b" (workload_digest workload) (style_tag options.style)
    options.clock_ns
    options.range_power

(* Under IMPACT_STORE_CHECK a memo hit is rebuilt cold, with no store, and
   must agree on the run's own fields (logs, passes, profile, pass outputs)
   and on the bits of both reference figures. *)
let check_env we (env, enc_min) =
  let run_digest e =
    let run = Estimate.run e.Solution.est_ctx in
    digest (run.Sim.logs, run.Sim.passes, run.Sim.profile, run.Sim.pass_outputs)
  in
  let bits = Int64.bits_of_float in
  if
    run_digest we.we_env <> run_digest env
    || bits we.we_enc_min <> bits enc_min
    || bits we.we_env.Solution.area_ref <> bits env.Solution.area_ref
  then failwith "impact store: memoised workload environment diverges from a cold rebuild"

let workload_env st ~options program ~workload build =
  let inputs = env_inputs ~options ~workload in
  let slot = env_slot st program in
  Mutex.protect slot.es_lock (fun () ->
      match slot.es_env with
      | Some we when String.equal slot.es_inputs inputs ->
        Atomic.incr env_hits;
        if check_enabled () then check_env we (build None);
        we
      | Some _ | None ->
        let we = unshared_env (build (Some st)) in
        Atomic.incr env_builds;
        slot.es_inputs <- inputs;
        slot.es_env <- Some we;
        we)

(* A request against the design tier publishes the run's switching memos to
   the traces tier after, hit or miss, when they grew since the context was
   seeded or last published: a hit that prices nothing new reads nothing. *)
let around_request ?store program ~workload we compute =
  let v = compute () in
  Option.iter
    (fun st ->
      let ctx = we.we_env.Solution.est_ctx in
      let last = Atomic.get we.we_published and now = Estimate.memo_entries ctx in
      if now > last && Atomic.compare_and_set we.we_published last now then
        sync_traces st program ~workload ctx)
    store;
  v

let find_or_synthesize ?store ~options program ~workload ~objective ~laxity we cold =
  let env = env_at we ~objective ~laxity in
  around_request ?store program ~workload we (fun () ->
      find_or_compute ?store design_tier
        ~key:(fun () -> design_key ~options program ~workload ~objective ~laxity)
        ~restore:(restore_design env ~enc_min:we.we_enc_min ~objective ~laxity)
        ~persist:persist_design ~fingerprint:design_fingerprint
        (fun () -> cold env))

let find_or_sweep ?store ~options program ~workload ~laxities we cold =
  let env0 = env_at we ~objective:Solution.Minimize_area ~laxity:1.0 in
  around_request ?store program ~workload we (fun () ->
      fst
        (find_or_compute ?store sweep_tier
           ~key:(fun () -> sweep_key ~options program ~workload ~laxities)
           ~restore:(restore_sweep env0 ~enc_min:we.we_enc_min ~laxities)
           ~persist:persist_sweep ~fingerprint:sweep_fingerprint cold))
