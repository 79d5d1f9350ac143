module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Diagnostic = Impact_util.Diagnostic
module Profile = Impact_sim.Profile

type issue = Diagnostic.t

let issue ~rule where fmt = Diagnostic.error ~rule ~path:where fmt

let firing_site_issues (program : Graph.program) (stg : Stg.t) =
  let g = program.Graph.graph in
  let nn = Graph.node_count g in
  let normal = Array.make nn 0 in
  let init = Array.make nn 0 and back = Array.make nn 0 in
  Stg.iter_firings stg ~f:(fun _ fr ->
      match fr.Stg.f_phase with
      | Stg.Normal -> normal.(fr.Stg.f_node) <- normal.(fr.Stg.f_node) + 1
      | Stg.Merge_init -> init.(fr.Stg.f_node) <- init.(fr.Stg.f_node) + 1
      | Stg.Merge_back -> back.(fr.Stg.f_node) <- back.(fr.Stg.f_node) + 1);
  Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
      let where = Printf.sprintf "node %d (%s)" n.Ir.n_id n.Ir.n_name in
      let issue fmt = issue ~rule:"stg/no-firing-site" where fmt in
      match n.Ir.kind with
      | Ir.Op_loop_merge ->
        (if init.(n.Ir.n_id) = 0 then [ issue "merge has no init firing site" ]
         else [])
        @ (if back.(n.Ir.n_id) = 0 then [ issue "merge has no back firing site" ]
           else [])
        @ acc
      | _ ->
        if normal.(n.Ir.n_id) = 0 then issue "node never fires" :: acc else acc)

(* Exhaustive determinism/exhaustiveness check over all 2^k assignments of
   the condition edges a state tests.  Exact, but only tractable for small
   [k]. *)
let exhaustive_guard_issues where edges transitions =
  let issues = ref [] in
  let k = List.length edges in
  let edge_arr = Array.of_list edges in
  for mask = 0 to (1 lsl k) - 1 do
    let assignment =
      List.init k (fun i -> (edge_arr.(i), mask land (1 lsl i) <> 0))
    in
    let matches =
      List.filter
        (fun { Stg.t_guard; _ } ->
          List.for_all
            (fun a -> List.assoc a.Guard.cond_edge assignment = a.Guard.value)
            (Guard.atoms t_guard))
        transitions
    in
    match matches with
    | [ _ ] -> ()
    | [] ->
      issues :=
        issue ~rule:"stg/guard-not-exhaustive" where
          "no transition for assignment %d (not exhaustive)" mask
        :: !issues
    | _ :: _ :: _ ->
      issues :=
        issue ~rule:"stg/guard-nondeterministic" where
          "multiple transitions for assignment %d (nondeterministic)" mask
        :: !issues
  done;
  !issues

(* Pairwise determinism: two distinct transitions can fire simultaneously
   iff their guards do not conflict.  Exact over the full assignment space
   and polynomial, so it runs even when the exhaustive sweep is
   intractable. *)
let pairwise_determinism_issues where transitions =
  let arr = Array.of_list transitions in
  let issues = ref [] in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      if not (Guard.conflicts arr.(i).Stg.t_guard arr.(j).Stg.t_guard) then
        issues :=
          issue ~rule:"stg/guard-nondeterministic" where
            "transitions guarded by [%s] and [%s] can fire simultaneously \
             (nondeterministic)"
            (Guard.to_string arr.(i).Stg.t_guard)
            (Guard.to_string arr.(j).Stg.t_guard)
          :: !issues
    done
  done;
  !issues

(* Fallback exhaustiveness over only the condition values actually observed
   in the profiled trace: each edge's domain shrinks to the outcomes it was
   seen to take (both values when the edge was never exercised, since the
   profile is then uninformative).  Bounded by [max_assignments] enumerated
   joint assignments. *)
let observed_guard_issues where edges transitions profile ~max_assignments =
  let domains =
    List.map
      (fun e ->
        let dom =
          if Profile.cond_evaluations profile e = 0 then [ true; false ]
          else
            (if Profile.prob_true profile e > 0. then [ true ] else [])
            @ if Profile.prob_true profile e < 1. then [ false ] else []
        in
        (e, dom))
      edges
  in
  let total =
    List.fold_left (fun acc (_, dom) -> acc * List.length dom) 1 domains
  in
  if total > max_assignments then
    ( [ Diagnostic.warning ~rule:"stg/guard-check-skipped" ~path:where
          "exhaustiveness not checked: %d observed assignments exceed the \
           enumeration cap of %d"
          total max_assignments ],
      false )
  else begin
    let issues = ref [] in
    let rec enum acc = function
      | [] ->
        let matches =
          List.filter
            (fun { Stg.t_guard; _ } ->
              List.for_all
                (fun a -> List.assoc a.Guard.cond_edge acc = a.Guard.value)
                (Guard.atoms t_guard))
            transitions
        in
        if matches = [] then
          issues :=
            issue ~rule:"stg/guard-not-exhaustive" where
              "no transition for observed assignment [%s] (not exhaustive)"
              (acc
              |> List.rev_map (fun (e, v) ->
                     Printf.sprintf "e%d=%b" e v)
              |> String.concat "; ")
            :: !issues
      | (e, dom) :: rest ->
        List.iter (fun v -> enum ((e, v) :: acc) rest) dom
    in
    enum [] domains;
    (!issues, true)
  end

let guard_issues ?profile (stg : Stg.t) =
  let issues = ref [] in
  Array.iteri
    (fun s transitions ->
      if s <> stg.Stg.exit_id then begin
        let where = Printf.sprintf "state %d" s in
        if transitions = [] then
          issues :=
            issue ~rule:"stg/no-transition" where "no outgoing transition"
            :: !issues
        else begin
          let edges =
            transitions
            |> List.concat_map (fun { Stg.t_guard; _ } ->
                   List.map (fun a -> a.Guard.cond_edge) (Guard.atoms t_guard))
            |> List.sort_uniq Int.compare
          in
          let k = List.length edges in
          if k <= 12 then
            issues := exhaustive_guard_issues where edges transitions @ !issues
          else begin
            (* Too many condition edges for the 2^k sweep.  Determinism stays
               exact via pairwise guard-conflict analysis; exhaustiveness
               falls back to the assignments observed in the profiled trace
               (when a profile is available). *)
            issues := pairwise_determinism_issues where transitions @ !issues;
            match profile with
            | None ->
              issues :=
                Diagnostic.warning ~rule:"stg/guard-check-skipped" ~path:where
                  "state tests %d condition edges (> 12): exhaustiveness not \
                   checked (no profile available); determinism checked \
                   pairwise"
                  k
                :: !issues
            | Some p ->
              let obs, checked =
                observed_guard_issues where edges transitions p
                  ~max_assignments:4096
              in
              issues := obs @ !issues;
              if checked then
                issues :=
                  Diagnostic.warning ~rule:"stg/guard-check-skipped" ~path:where
                    "state tests %d condition edges (> 12): exhaustiveness \
                     checked only over profile-observed assignments; \
                     determinism checked pairwise"
                    k
                  :: !issues
          end
        end
      end)
    stg.Stg.succs;
  !issues

(* Chained execution order is verified end-to-end by the RTL-simulator
   equivalence tests; here we only check the clock-period budget and basic
   sanity of the recorded times.  (A state assembled by a parallel product
   concatenates two independently-ordered firing lists, and a single-state
   loop body legally reads a loop-merge register that fires later in the
   same state — so list order alone is not a dependence violation.) *)
let timing_issues (stg : Stg.t) =
  let issues = ref [] in
  Array.iteri
    (fun s state ->
      let where = Printf.sprintf "state %d" s in
      List.iter
        (fun fr ->
          (* Start is an offset in the firing's first clock period; finish
             an offset relative to the start of its last.  For a multi-cycle
             firing finish may legally be smaller than start, and even
             negative — the output network can extend the occupied span past
             the cycle in which the raw result was ready.  What must hold:
             start in [0, clock], finish at most clock. *)
          if
            fr.Stg.f_finish_ns > stg.Stg.clock_ns +. 1e-9
            || fr.Stg.f_start_ns > stg.Stg.clock_ns +. 1e-9
          then
            issues :=
              issue ~rule:"stg/timing-overrun" where
                "firing of n%d at %.1f..%.1f ns overruns the %.1f ns clock"
                fr.Stg.f_node fr.Stg.f_start_ns fr.Stg.f_finish_ns
                stg.Stg.clock_ns
              :: !issues;
          if fr.Stg.f_start_ns < -1e-9 then
            issues :=
              issue ~rule:"stg/timing-inconsistent" where
                "firing of n%d starts at a negative offset (%.1f ns)"
                fr.Stg.f_node fr.Stg.f_start_ns
              :: !issues)
        state.Stg.firings)
    stg.Stg.states;
  !issues

let exit_issues (stg : Stg.t) =
  let state = stg.Stg.states.(stg.Stg.exit_id) in
  (if state.Stg.firings <> [] then
     [ issue ~rule:"stg/exit-fires" "exit" "exit state fires operations" ]
   else [])
  @
  if stg.Stg.succs.(stg.Stg.exit_id) <> [] then
    [ issue ~rule:"stg/exit-successors" "exit" "exit state has successors" ]
  else []

(* --- Spliced-STG validation ----------------------------------------------
   Every transition destination, the entry and the exit must name states of
   the array.  [Stg.instantiate]'s renumbering guarantees this for any
   fragment, so a finding here means the composition of fragments
   corrupted the STG itself. *)
let splice_issues (stg : Stg.t) =
  let n = Array.length stg.Stg.states in
  let issues = ref [] in
  if stg.Stg.entry < 0 || stg.Stg.entry >= n then
    issues :=
      issue ~rule:"stg/splice-entry-range" "entry" "entry %d outside %d states"
        stg.Stg.entry n
      :: !issues;
  if stg.Stg.exit_id < 0 || stg.Stg.exit_id >= n then
    issues :=
      issue ~rule:"stg/splice-exit-range" "exit" "exit %d outside %d states"
        stg.Stg.exit_id n
      :: !issues;
  Array.iteri
    (fun s transitions ->
      List.iter
        (fun { Stg.t_dst; _ } ->
          if t_dst < 0 || t_dst >= n then
            issues :=
              issue ~rule:"stg/splice-dangling-transition"
                (Printf.sprintf "state %d" s)
                "transition dangles to %d outside %d states" t_dst n
              :: !issues)
        transitions)
    stg.Stg.succs;
  !issues

let check ?profile program stg =
  firing_site_issues program stg
  @ guard_issues ?profile stg
  @ timing_issues stg @ exit_issues stg @ splice_issues stg
