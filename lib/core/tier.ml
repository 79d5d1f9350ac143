module Graph = Impact_cdfg.Graph
module Scheduler = Impact_sched.Scheduler
module Fragcache = Impact_sched.Fragcache
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
    sweep_parallel : bool;
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

let program_digest (p : Graph.program) =
  let g = p.Graph.graph in
  digest (Graph.nodes g, Graph.edges g, p.Graph.top, p.Graph.prog_inputs, p.Graph.prog_outputs, p.Graph.prog_name)

(* The characterisation is a static value: digest it once, not per key. *)
let library_digest =
  let d = lazy (digest (Module_library.all_specs Module_library.default)) in
  fun () -> Lazy.force d

let canonical parts = String.concat "|" ("impact-store" :: string_of_int store_version :: parts)
let sim_key program ~workload = Store.key (canonical [ "sim"; program_digest program; digest workload ])

let traces_key program ~workload =
  Store.key (canonical [ "traces"; program_digest program; digest workload ])

let lib_key () = Store.key (canonical [ "lib"; library_digest () ])

(* The per-region digest covers the config fingerprint and every per-node
   model value, so fragments need only the program identity as context. *)
let frag_context program = canonical [ "frag"; program_digest program ]

(* Only trajectory-defining knobs participate: [jobs], [delta_reprice] and
   [sweep_parallel] are bit-identity-neutral by construction, so results
   computed at any engine configuration serve every other one. *)
let options_fingerprint o =
  Printf.sprintf "clock=%h,style=%s,depth=%d,cand=%d,seed=%d,restructure=%b,iter=%d,probes=%d%s"
    o.clock_ns
    (match o.style with Scheduler.Wavesched -> "wavesched" | Scheduler.Baseline -> "baseline")
    o.depth o.max_candidates o.seed o.enable_restructure o.max_iterations o.probes
    (* Appended only when on so every pre-existing key stays byte-identical
       with range pricing off. *)
    (if o.range_power then ",range_power=true" else "")

let request_key ~options program ~workload request =
  Store.key
    (canonical
       [ program_digest program; digest workload; library_digest (); options_fingerprint options; request ])

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
let put_raw ~ns ~cost_ns st k payload = try Store.put ~ns ~cost_ns st k payload with _ -> ()
let put tier ~cost_ns st k v = put_raw ~ns:tier.ns ~cost_ns st k (encode tier v)

let check_enabled () =
  match Sys.getenv_opt "IMPACT_STORE_CHECK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

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
      let v, cost_ns = timed cold in
      put tier ~cost_ns st k (persist v);
      v)

(* --- sim: find-or-compute ------------------------------------------------- *)

let sim_tier : Sim.portable_run t = make ~ns:"sim" ~tag:"sim"

let restore_sim program ~workload portable =
  let run = Sim.of_portable program portable in
  if
    run.Sim.passes = List.length workload
    && Array.length run.Sim.pass_outputs = max run.Sim.passes 1
  then Some run
  else None

let find_or_simulate ?store program ~workload =
  find_or_compute ?store sim_tier
    ~key:(fun () -> sim_key program ~workload)
    ~restore:(restore_sim program ~workload)
    ~persist:Sim.to_portable
    ~fingerprint:(fun run -> digest (Sim.to_portable run))
    (fun () -> Sim.simulate program ~workload)

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
   nothing is new.  The cost is the context's measured memo-miss time. *)
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
    if merged <> existing then
      put traces_tier ~cost_ns:(Estimate.memo_cost_ns est_ctx) st k merged
  with _ -> ()

(* --- lib: ensure ------------------------------------------------------------

   The key is the library digest, so a valid entry that disagrees with the
   live library is corruption, not skew: overwrite it. *)

let lib_tier : Module_library.spec list t = make ~ns:"lib" ~tag:"lib"

let ensure_lib st =
  try
    let k = lib_key () in
    let specs, cost_ns = timed (fun () -> Module_library.all_specs Module_library.default) in
    if find lib_tier st k <> Some specs then put lib_tier ~cost_ns st k specs
  with _ -> ()

(* --- frag: the fragment cache's backing ------------------------------------ *)

let frags ?store program =
  let backing st =
    {
      Fragcache.bk_find = (fun full -> try Store.find ~ns:"frag" st (Store.key full) with _ -> None);
      bk_put = (fun full ~cost_ns payload -> put_raw ~ns:"frag" ~cost_ns st (Store.key full) payload);
    }
  in
  Fragcache.create ~context:(frag_context program) ?backing:(Option.map backing store) ()

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

let design_tier : design_entry t = make ~ns:Store.default_ns ~tag:"design"
let sweep_tier : sweep_entry t = make ~ns:Store.default_ns ~tag:"sweep"

(* The ledger's term listing is table-fold-ordered; sorting makes it a
   canonical value that survives the round-trip comparison. *)
let ledger_terms_of sol =
  match sol.Solution.ledger with
  | None -> []
  | Some ledger -> List.sort compare (Estimate.ledger_terms ledger)

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
      if
        feq sol.Solution.cost entry.de_cost
        && feq sol.Solution.area entry.de_area
        && feq sol.Solution.enc entry.de_enc
        && feq sol.Solution.vdd entry.de_vdd
        && Stg.signature sol.Solution.stg = Stg.signature entry.de_stg
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

(* A request against the design tier also ensures the lib tier first and
   publishes the run's switching memos to the traces tier after, hit or
   miss. *)
let around_request ?store program ~workload env compute =
  Option.iter ensure_lib store;
  let v = compute () in
  Option.iter (fun st -> sync_traces st program ~workload env.Solution.est_ctx) store;
  v

let find_or_synthesize ?store ~options program ~workload ~objective ~laxity env ~enc_min cold =
  around_request ?store program ~workload env (fun () ->
      find_or_compute ?store design_tier
        ~key:(fun () -> design_key ~options program ~workload ~objective ~laxity)
        ~restore:(restore_design env ~enc_min ~objective ~laxity)
        ~persist:persist_design ~fingerprint:design_fingerprint cold)

let find_or_sweep ?store ~options program ~workload ~laxities env0 ~enc_min cold =
  around_request ?store program ~workload env0 (fun () ->
      fst
        (find_or_compute ?store sweep_tier
           ~key:(fun () -> sweep_key ~options program ~workload ~laxities)
           ~restore:(restore_sweep env0 ~enc_min ~laxities)
           ~persist:persist_sweep ~fingerprint:sweep_fingerprint cold))
