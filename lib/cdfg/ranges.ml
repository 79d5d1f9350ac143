(* Interval / known-bits abstract interpretation over the CDFG.  See the
   interface for the architecture overview.  The structured interpreter below
   deliberately mirrors [Sim.exec_region] so the accumulated facts are sound
   against the simulator's event log. *)

module Bitvec = Impact_util.Bitvec
module Diagnostic = Impact_util.Diagnostic

type fact = {
  f_width : int;
  f_lo : int;
  f_hi : int;
  f_zeros : int;
  f_ones : int;
}

type av = Bot | Fact of fact

(* ------------------------------------------------------------------ *)
(* Width arithmetic.  Widths are 1..62; all the [1 lsl w] corner cases
   below rely on OCaml's wraparound exactly the way [Bitvec] does.     *)
(* ------------------------------------------------------------------ *)

let min_signed w = -(1 lsl (w - 1))
let max_signed w = (1 lsl (w - 1)) - 1

(* [(1 lsl 62) - 1] wraps to [max_int], which is exactly the 62-bit mask. *)
let mask w = (1 lsl w) - 1

(* Signed value of an unsigned [w]-bit pattern; same wraparound trick as
   [Bitvec.to_signed]. *)
let signed_of_pattern w pat =
  if pat land (1 lsl (w - 1)) = 0 then pat else pat - (1 lsl w)

let num_bits v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

(* Position of the most significant set bit of [x > 0]. *)
let high_bit x = num_bits x - 1

(* ------------------------------------------------------------------ *)
(* Canonicalisation: the reduced product of interval and known bits.   *)
(* ------------------------------------------------------------------ *)

let rec norm ~width lo hi zeros ones =
  let mn = min_signed width and mx = max_signed width in
  let lo = max lo mn and hi = min hi mx in
  let m = mask width in
  let zeros = zeros land m and ones = ones land m in
  if lo > hi || zeros land ones <> 0 then Bot
  else begin
    (* Interval -> known prefix bits, valid when lo and hi share a sign so
       the bit patterns are ordered. *)
    let zeros', ones' =
      if lo >= 0 || hi < 0 then begin
        let plo = lo land m and phi = hi land m in
        let x = plo lxor phi in
        let prefix =
          if x = 0 then m
          else m land lnot ((1 lsl (high_bit x + 1)) - 1)
        in
        (zeros lor (prefix land lnot plo), ones lor (prefix land plo))
      end
      else (zeros, ones)
    in
    (* Known bits -> interval: the smallest pattern sets only forced ones
       plus the sign bit if free; the largest sets every free non-sign bit. *)
    let unknown = m land lnot (zeros' lor ones') in
    let signbit = 1 lsl (width - 1) in
    let kb_lo = signed_of_pattern width (ones' lor (unknown land signbit)) in
    let kb_hi = signed_of_pattern width (ones' lor (unknown land lnot signbit)) in
    let lo' = max lo kb_lo and hi' = min hi kb_hi in
    if zeros' <> zeros || ones' <> ones || lo' <> lo || hi' <> hi then
      norm ~width lo' hi' zeros' ones'
    else Fact { f_width = width; f_lo = lo; f_hi = hi; f_zeros = zeros; f_ones = ones }
  end

let top w = norm ~width:w (min_signed w) (max_signed w) 0 0
let interval ~width lo hi = norm ~width lo hi 0 0
let singleton ~width v = norm ~width v v 0 0
let of_bitvec bv = singleton ~width:(Bitvec.width bv) (Bitvec.to_signed bv)

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Fact fa, Fact fb ->
    if fa.f_width <> fb.f_width then
      invalid_arg "Ranges.join: width mismatch"
    else
      norm ~width:fa.f_width (min fa.f_lo fb.f_lo) (max fa.f_hi fb.f_hi)
        (fa.f_zeros land fb.f_zeros) (fa.f_ones land fb.f_ones)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Fact fa, Fact fb ->
    if fa.f_width <> fb.f_width then
      invalid_arg "Ranges.meet: width mismatch"
    else
      norm ~width:fa.f_width (max fa.f_lo fb.f_lo) (min fa.f_hi fb.f_hi)
        (fa.f_zeros lor fb.f_zeros) (fa.f_ones lor fb.f_ones)

let mem av bv =
  match av with
  | Bot -> false
  | Fact f ->
    let v = Bitvec.to_signed bv and bits = Bitvec.bits bv in
    Bitvec.width bv = f.f_width
    && v >= f.f_lo && v <= f.f_hi
    && bits land f.f_zeros = 0
    && bits land f.f_ones = f.f_ones

let required_bits f =
  let bits_for v = if v >= 0 then num_bits v + 1 else num_bits (lnot v) + 1 in
  min f.f_width (max (bits_for f.f_lo) (bits_for f.f_hi))

let active_bits av ~width =
  match av with
  | Bot -> 1
  | Fact f ->
    let unknown = mask width land lnot (f.f_zeros lor f.f_ones) in
    let rec pop acc v = if v = 0 then acc else pop (acc + 1) (v land (v - 1)) in
    min width (max 1 (pop 0 unknown))

(* ------------------------------------------------------------------ *)
(* Per-operator transfer functions.                                    *)
(* ------------------------------------------------------------------ *)

let is_singleton f = f.f_lo = f.f_hi

(* 1-bit conditions: true is the all-ones pattern, signed -1. *)
let bool_true = singleton ~width:1 (-1)
let bool_false = singleton ~width:1 0
let bool_unknown = interval ~width:1 (-1) 0

let maybe_true c =
  c.f_width <> 1 || (c.f_lo <= -1 && -1 <= c.f_hi && c.f_zeros land 1 = 0)

let maybe_false c =
  c.f_width <> 1 || (c.f_lo <= 0 && 0 <= c.f_hi && c.f_ones land 1 = 0)

(* Exact result range of add/sub/mul on operand intervals, [None] when a
   product escapes the native int range (operands are within +-2^61, so
   add/sub endpoint sums are always exact). *)
let exact_range kind fa fb =
  match kind with
  | Ir.Op_add -> Some (fa.f_lo + fb.f_lo, fa.f_hi + fb.f_hi)
  | Ir.Op_sub -> Some (fa.f_lo - fb.f_hi, fa.f_hi - fb.f_lo)
  | Ir.Op_mul ->
    let p x y =
      if x = 0 || y = 0 then Some 0
      else if abs y <= max_int / abs x then Some (x * y)
      else None
    in
    (match
       ( p fa.f_lo fb.f_lo, p fa.f_lo fb.f_hi,
         p fa.f_hi fb.f_lo, p fa.f_hi fb.f_hi )
     with
    | Some a, Some b, Some c, Some d ->
      Some (min (min a b) (min c d), max (max a b) (max c d))
    | _ -> None)
  | _ -> invalid_arg "Ranges.exact_range"

let tr_arith kind ~width fa fb =
  match exact_range kind fa fb with
  | Some (lo, hi) when lo >= min_signed width && hi <= max_signed width ->
    interval ~width lo hi
  | _ -> top width

(* Three-valued comparison verdict from intervals plus known-bit conflicts. *)
let cmp_verdict kind fa fb =
  if fa.f_width <> fb.f_width then None
  else
    let eq_verdict () =
      if is_singleton fa && is_singleton fb && fa.f_lo = fb.f_lo then Some true
      else if fa.f_hi < fb.f_lo || fb.f_hi < fa.f_lo then Some false
      else if (fa.f_ones land fb.f_zeros) lor (fa.f_zeros land fb.f_ones) <> 0
      then Some false
      else None
    in
    match kind with
    | Ir.Op_lt ->
      if fa.f_hi < fb.f_lo then Some true
      else if fa.f_lo >= fb.f_hi then Some false
      else None
    | Ir.Op_le ->
      if fa.f_hi <= fb.f_lo then Some true
      else if fa.f_lo > fb.f_hi then Some false
      else None
    | Ir.Op_gt ->
      if fa.f_lo > fb.f_hi then Some true
      else if fa.f_hi <= fb.f_lo then Some false
      else None
    | Ir.Op_ge ->
      if fa.f_lo >= fb.f_hi then Some true
      else if fa.f_hi < fb.f_lo then Some false
      else None
    | Ir.Op_eq -> eq_verdict ()
    | Ir.Op_ne -> (match eq_verdict () with Some b -> Some (not b) | None -> None)
    | _ -> invalid_arg "Ranges.cmp_verdict"

let tr_cmp kind ~width fa fb =
  if width <> 1 then top width
  else
    match cmp_verdict kind fa fb with
    | Some true -> bool_true
    | Some false -> bool_false
    | None -> bool_unknown

let tr_bitwise kind ~width fa fb_opt =
  let ok w = w = width in
  match (kind, fb_opt) with
  | Ir.Op_not, None ->
    if ok fa.f_width then norm ~width (min_signed width) (max_signed width) fa.f_ones fa.f_zeros
    else top width
  | (Ir.Op_and | Ir.Op_or | Ir.Op_xor), Some fb ->
    if not (ok fa.f_width && ok fb.f_width) then top width
    else
      let zeros, ones =
        match kind with
        | Ir.Op_and -> (fa.f_zeros lor fb.f_zeros, fa.f_ones land fb.f_ones)
        | Ir.Op_or -> (fa.f_zeros land fb.f_zeros, fa.f_ones lor fb.f_ones)
        | _ ->
          ( (fa.f_zeros land fb.f_zeros) lor (fa.f_ones land fb.f_ones),
            (fa.f_ones land fb.f_zeros) lor (fa.f_zeros land fb.f_ones) )
      in
      norm ~width (min_signed width) (max_signed width) zeros ones
  | _ -> invalid_arg "Ranges.tr_bitwise"

(* The simulator clamps the shift amount to [min (to_unsigned b) 62]. *)
let unsigned_singleton f =
  if is_singleton f then Some (min (f.f_lo land mask f.f_width) Bitvec.max_width)
  else None

let tr_shl ~width fa fb =
  if fa.f_width <> width then top width
  else
    match unsigned_singleton fb with
    | None -> top width
    | Some 0 -> Fact fa
    | Some n when n >= width -> singleton ~width 0
    | Some n ->
      let m = 1 lsl n in
      let low_zeros = m - 1 in
      let shifted_known k = (k lsl n) land mask width in
      let fits x = x = 0 || abs x <= max_int / m in
      if
        fits fa.f_lo && fits fa.f_hi
        && fa.f_lo * m >= min_signed width
        && fa.f_hi * m <= max_signed width
      then
        norm ~width (fa.f_lo * m) (fa.f_hi * m)
          (low_zeros lor shifted_known fa.f_zeros)
          (shifted_known fa.f_ones)
      else norm ~width (min_signed width) (max_signed width) low_zeros 0

let tr_shr ~width fa fb =
  if fa.f_width <> width then top width
  else
    match unsigned_singleton fb with
    | Some n ->
      let n = min n (width - 1) in
      interval ~width (fa.f_lo asr n) (fa.f_hi asr n)
    | None ->
      (* Any amount 0..width-1: shifting moves values toward 0 / -1. *)
      interval ~width
        (if fa.f_lo > 0 then 0 else fa.f_lo)
        (if fa.f_hi < 0 then -1 else fa.f_hi)

let tr_resize ~width f =
  if f.f_width = width then Fact f
  else if width > f.f_width then begin
    (* Sign extension preserves the value; extension bits copy the sign bit
       when it is known. *)
    let ext = mask width land lnot (mask f.f_width) in
    let sb = 1 lsl (f.f_width - 1) in
    let zeros = f.f_zeros lor (if f.f_zeros land sb <> 0 then ext else 0) in
    let ones = f.f_ones lor (if f.f_ones land sb <> 0 then ext else 0) in
    norm ~width f.f_lo f.f_hi zeros ones
  end
  else begin
    (* Truncation keeps the low bits; the value survives only if it already
       fits the narrower signed range. *)
    let zeros = f.f_zeros land mask width and ones = f.f_ones land mask width in
    if f.f_lo >= min_signed width && f.f_hi <= max_signed width then
      norm ~width f.f_lo f.f_hi zeros ones
    else norm ~width (min_signed width) (max_signed width) zeros ones
  end

let transfer kind ~width (ins : av array) =
  let fact i = match ins.(i) with Bot -> None | Fact f -> Some f in
  match kind with
  | Ir.Op_select -> (
    match fact 0 with
    | None -> Bot
    | Some c ->
      let t = if maybe_true c then ins.(1) else Bot in
      let e = if maybe_false c then ins.(2) else Bot in
      join t e)
  | Ir.Op_loop_merge -> join ins.(0) ins.(1)
  | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> (
    match fact 0 with
    | None -> Bot
    | Some f -> if f.f_width = width then Fact f else top width)
  | Ir.Op_resize -> (
    match fact 0 with None -> Bot | Some f -> tr_resize ~width f)
  | Ir.Op_not -> (
    match fact 0 with
    | None -> Bot
    | Some f -> tr_bitwise Ir.Op_not ~width f None)
  | Ir.Op_add | Ir.Op_sub | Ir.Op_mul | Ir.Op_lt | Ir.Op_le | Ir.Op_gt
  | Ir.Op_ge | Ir.Op_eq | Ir.Op_ne | Ir.Op_and | Ir.Op_or | Ir.Op_xor
  | Ir.Op_shl | Ir.Op_shr -> (
    match (fact 0, fact 1) with
    | None, _ | _, None -> Bot
    | Some fa, Some fb -> (
      match kind with
      | Ir.Op_add | Ir.Op_sub | Ir.Op_mul ->
        if fa.f_width = width && fb.f_width = width then
          tr_arith kind ~width fa fb
        else top width
      | Ir.Op_lt | Ir.Op_le | Ir.Op_gt | Ir.Op_ge | Ir.Op_eq | Ir.Op_ne ->
        tr_cmp kind ~width fa fb
      | Ir.Op_and | Ir.Op_or | Ir.Op_xor ->
        tr_bitwise kind ~width fa (Some fb)
      | Ir.Op_shl -> tr_shl ~width fa fb
      | Ir.Op_shr -> tr_shr ~width fa fb
      | _ -> assert false))

(* ------------------------------------------------------------------ *)
(* The fixpoint engine.                                                *)
(* ------------------------------------------------------------------ *)

type binfo = {
  mutable b_seen : bool;  (* the guard was evaluated to a non-Bot fact *)
  mutable b_then : bool;  (* then-branch / loop body possibly executes *)
  mutable b_else : bool;  (* else-branch / loop exit possibly executes *)
  b_loop : bool;
}

type ovf_info = { o_a : fact; o_b : fact; o_range : (int * int) option }

type t = {
  g : Graph.t;
  prog : Graph.program;
  acc : av array;  (* per-node accumulated output fact, join-monotone *)
  refine : (Ir.edge_id, fact) Hashtbl.t;  (* scoped guard refinements *)
  mutable gen : int;  (* bumped on every fact change, for convergence *)
  branch : (Ir.edge_id, binfo) Hashtbl.t;
  ovf : ovf_info option array;  (* first observed may-wrap per node *)
  landmarks : int array;  (* sorted widening thresholds *)
}

let landmarks g =
  let acc = ref [ 0; 1; -1 ] in
  Graph.iter_edges g ~f:(fun e ->
      match e.Ir.source with
      | Ir.Const v ->
        let s = Bitvec.to_signed v in
        acc := s :: (s - 1) :: (s + 1) :: !acc
      | _ -> ());
  Array.of_list (List.sort_uniq compare !acc)

let create prog =
  let g = prog.Graph.graph in
  let nn = Graph.node_count g in
  {
    g;
    prog;
    acc = Array.make nn Bot;
    refine = Hashtbl.create 64;
    gen = 0;
    branch = Hashtbl.create 16;
    ovf = Array.make nn None;
    landmarks = landmarks g;
  }

(* Published (unrefined) fact of an edge. *)
let raw_edge_av t eid =
  let e = Graph.edge t.g eid in
  match e.Ir.source with
  | Ir.Const v -> of_bitvec v
  | Ir.Primary_input _ -> top e.Ir.e_width
  | Ir.From_node nid -> t.acc.(nid)

(* Refined read: the published fact narrowed by any in-scope guard facts. *)
let eval_edge t eid =
  let base = raw_edge_av t eid in
  match Hashtbl.find_opt t.refine eid with
  | None -> base
  | Some r -> meet base (Fact r)

let publish t nid v =
  let j = join t.acc.(nid) v in
  if j <> t.acc.(nid) then begin
    t.acc.(nid) <- j;
    t.gen <- t.gen + 1
  end

let branch_info t eid ~loop =
  match Hashtbl.find_opt t.branch eid with
  | Some b -> b
  | None ->
    let b = { b_seen = false; b_then = false; b_else = false; b_loop = loop } in
    Hashtbl.add t.branch eid b;
    b

(* --- Guard refinement ---------------------------------------------- *)

(* Facts implied by [cond_eid] evaluating to [want], as (edge, fact) pairs.
   Recurses through Not / And-true / Or-false and turns comparisons into
   interval constraints on their operand edges. *)
let derive_constraints t cond_eid want =
  let out = ref [] in
  let push eid av = out := (eid, av) :: !out in
  let rec go eid want =
    push eid (if want then bool_true else bool_false);
    let e = Graph.edge t.g eid in
    match e.Ir.source with
    | Ir.Const _ | Ir.Primary_input _ -> ()
    | Ir.From_node nid -> (
      let n = Graph.node t.g nid in
      match (n.Ir.kind, want) with
      | Ir.Op_not, _ -> go n.Ir.inputs.(0) (not want)
      | Ir.Op_and, true | Ir.Op_or, false ->
        go n.Ir.inputs.(0) want;
        go n.Ir.inputs.(1) want
      | (Ir.Op_lt | Ir.Op_le | Ir.Op_gt | Ir.Op_ge | Ir.Op_eq | Ir.Op_ne), _ ->
        cmp_constraints n want
      | _ -> ())
  and cmp_constraints n want =
    let ea = n.Ir.inputs.(0) and eb = n.Ir.inputs.(1) in
    match (eval_edge t ea, eval_edge t eb) with
    | Fact fa, Fact fb when fa.f_width = fb.f_width ->
      let w = fa.f_width in
      let lt a fa b fb =
        (* a < b *)
        push a (interval ~width:w (min_signed w) (fb.f_hi - 1));
        push b (interval ~width:w (fa.f_lo + 1) (max_signed w))
      in
      let le a fa b fb =
        (* a <= b *)
        push a (interval ~width:w (min_signed w) fb.f_hi);
        push b (interval ~width:w fa.f_lo (max_signed w))
      in
      let eq () =
        push ea (Fact fb);
        push eb (Fact fa)
      in
      let ne () =
        if is_singleton fa && is_singleton fb && fa.f_lo = fb.f_lo then
          (* a <> b is impossible: both are the same constant. *)
          push ea Bot
        else begin
          (if is_singleton fb then
             if fb.f_lo = fa.f_lo then
               push ea (interval ~width:w (fa.f_lo + 1) fa.f_hi)
             else if fb.f_lo = fa.f_hi then
               push ea (interval ~width:w fa.f_lo (fa.f_hi - 1)));
          if is_singleton fa then
            if fa.f_lo = fb.f_lo then
              push eb (interval ~width:w (fb.f_lo + 1) fb.f_hi)
            else if fa.f_lo = fb.f_hi then
              push eb (interval ~width:w fb.f_lo (fb.f_hi - 1))
        end
      in
      (match (n.Ir.kind, want) with
      | Ir.Op_lt, true | Ir.Op_ge, false -> lt ea fa eb fb
      | Ir.Op_lt, false | Ir.Op_ge, true -> le eb fb ea fa
      | Ir.Op_le, true | Ir.Op_gt, false -> le ea fa eb fb
      | Ir.Op_le, false | Ir.Op_gt, true -> lt eb fb ea fa
      | Ir.Op_eq, true | Ir.Op_ne, false -> eq ()
      | Ir.Op_eq, false | Ir.Op_ne, true -> ne ()
      | _ -> ())
    | _ -> ()
  in
  go cond_eid want;
  !out

(* Run [f] with the guard facts in scope; [None] when the combination of
   constraints is contradictory (the path is infeasible). *)
let with_assume t cond_eid want f =
  let cs = derive_constraints t cond_eid want in
  let saved = ref [] in
  let infeasible = ref false in
  List.iter
    (fun (eid, c) ->
      if not !infeasible then
        match c with
        | Bot -> infeasible := true
        | Fact fc -> (
          let old = Hashtbl.find_opt t.refine eid in
          let comb =
            match old with None -> Fact fc | Some o -> meet (Fact o) (Fact fc)
          in
          match comb with
          | Bot -> infeasible := true
          | Fact comb ->
            saved := (eid, old) :: !saved;
            Hashtbl.replace t.refine eid comb))
    cs;
  let restore () =
    List.iter
      (fun (eid, old) ->
        match old with
        | None -> Hashtbl.remove t.refine eid
        | Some o -> Hashtbl.replace t.refine eid o)
      !saved
  in
  if !infeasible then begin
    restore ();
    None
  end
  else begin
    let r = try f () with exn -> restore (); raise exn in
    restore ();
    Some r
  end

(* --- Firing rules --------------------------------------------------- *)

let record_overflow t n fa fb range =
  let nid = n.Ir.n_id in
  if t.ovf.(nid) = None then
    t.ovf.(nid) <- Some { o_a = fa; o_b = fb; o_range = range }

(* An operand whose range is strictly inside its type is "deliberately
   bounded"; wrap warnings on full-range operands are pure noise. *)
let proper f = f.f_lo > min_signed f.f_width && f.f_hi < max_signed f.f_width

let fire_select t n =
  let cond_eid = n.Ir.inputs.(0) in
  match eval_edge t cond_eid with
  | Bot -> ()
  | Fact c ->
    let contrib want data_eid =
      if not (if want then maybe_true c else maybe_false c) then Bot
      else if raw_edge_av t data_eid = Bot then
        (* The producer never fires on any explored path: the simulator
           reads a stale zero (cf. [Sim.eval_edge_or_stale]). *)
        singleton ~width:(Graph.edge t.g data_eid).Ir.e_width 0
      else
        match with_assume t cond_eid want (fun () -> eval_edge t data_eid) with
        | None -> Bot
        | Some v -> v
    in
    let v = join (contrib true n.Ir.inputs.(1)) (contrib false n.Ir.inputs.(2)) in
    publish t n.Ir.n_id v

let fire_normal t nid =
  let n = Graph.node t.g nid in
  match n.Ir.kind with
  | Ir.Op_select -> fire_select t n
  | Ir.Op_loop_merge -> assert false (* fired through [fire_merge] *)
  | kind ->
    let ins = Array.map (eval_edge t) n.Ir.inputs in
    (match (kind, ins) with
    | (Ir.Op_add | Ir.Op_sub | Ir.Op_mul), [| Fact fa; Fact fb |]
      when fa.f_width = n.Ir.n_width && fb.f_width = n.Ir.n_width
           && proper fa && proper fb -> (
      match exact_range kind fa fb with
      | Some (lo, hi)
        when lo >= min_signed n.Ir.n_width && hi <= max_signed n.Ir.n_width ->
        ()
      | r -> record_overflow t n fa fb r)
    | _ -> ());
    publish t nid (transfer kind ~width:n.Ir.n_width ins)

type merge_phase = Merge_init | Merge_back

let fire_merge t phase nid =
  let n = Graph.node t.g nid in
  let port = match phase with Merge_init -> 0 | Merge_back -> 1 in
  publish t nid (eval_edge t n.Ir.inputs.(port))

(* --- Widening ------------------------------------------------------- *)

let snap_lo t w lo =
  let best = ref (min_signed w) in
  Array.iter (fun l -> if l <= lo && l > !best then best := l) t.landmarks;
  !best

let snap_hi t w hi =
  let best = ref (max_signed w) in
  Array.iter (fun l -> if l >= hi && l < !best then best := l) t.landmarks;
  !best

let widen_merge t nid =
  match t.acc.(nid) with
  | Bot -> ()
  | Fact f ->
    let lo = snap_lo t f.f_width f.f_lo and hi = snap_hi t f.f_width f.f_hi in
    if lo <> f.f_lo || hi <> f.f_hi then begin
      let v = norm ~width:f.f_width lo hi f.f_zeros f.f_ones in
      if v <> t.acc.(nid) then begin
        t.acc.(nid) <- v;
        t.gen <- t.gen + 1
      end
    end

(* --- The structured interpreter ------------------------------------- *)

let widen_after = 4
let loop_round_cap = 10_000

let rec exec_region t region =
  match region with
  | Ir.R_ops ids -> List.iter (fire_normal t) ids
  | Ir.R_seq rs -> List.iter (exec_region t) rs
  | Ir.R_if { cond_edge; then_r; else_r; sels } ->
    (match eval_edge t cond_edge with
    | Bot -> () (* region is unreachable under the current facts *)
    | Fact c ->
      let info = branch_info t cond_edge ~loop:false in
      info.b_seen <- true;
      if maybe_true c then (
        match with_assume t cond_edge true (fun () -> exec_region t then_r) with
        | Some () -> info.b_then <- true
        | None -> ());
      if maybe_false c then (
        match with_assume t cond_edge false (fun () -> exec_region t else_r) with
        | Some () -> info.b_else <- true
        | None -> ());
      List.iter (fun sid -> fire_select t (Graph.node t.g sid)) sels)
  | Ir.R_loop { loop; merges; cond_r; cond_edge; body; elps } ->
    List.iter (fire_merge t Merge_init) merges;
    let info = branch_info t cond_edge ~loop:true in
    let rounds = ref 0 in
    let stable = ref false in
    while not !stable do
      incr rounds;
      if !rounds > loop_round_cap then
        failwith
          (Printf.sprintf "Ranges: loop %d of %s did not converge" loop
             t.prog.Graph.prog_name);
      let g0 = t.gen in
      exec_region t cond_r;
      (match eval_edge t cond_edge with
      | Bot -> ()
      | Fact c ->
        info.b_seen <- true;
        if maybe_true c then (
          match
            with_assume t cond_edge true (fun () ->
                exec_region t body;
                List.iter (fire_merge t Merge_back) merges)
          with
          | Some () -> info.b_then <- true
          | None -> ()));
      if t.gen = g0 then stable := true
      else if !rounds >= widen_after then List.iter (widen_merge t) merges
    done;
    (match eval_edge t cond_edge with
    | Bot -> ()
    | Fact c ->
      if maybe_false c then (
        match
          with_assume t cond_edge false (fun () ->
              List.iter (fire_normal t) elps)
        with
        | Some () -> info.b_else <- true
        | None -> ()))

let analyze prog =
  let t = create prog in
  let rounds = ref 0 in
  let stable = ref false in
  while not !stable do
    incr rounds;
    if !rounds > 64 then
      failwith
        (Printf.sprintf "Ranges: %s did not reach a global fixpoint"
           prog.Graph.prog_name);
    let g0 = t.gen in
    exec_region t prog.Graph.top;
    if t.gen = g0 then stable := true
  done;
  t

let node_fact t nid = t.acc.(nid)
let edge_fact t eid = raw_edge_av t eid

let effective_widths t =
  Array.init (Graph.node_count t.g) (fun nid ->
      active_bits t.acc.(nid) ~width:(Graph.node t.g nid).Ir.n_width)

(* ------------------------------------------------------------------ *)
(* Diagnostics.                                                        *)
(* ------------------------------------------------------------------ *)

let node_path n = Printf.sprintf "n%d:%s" n.Ir.n_id n.Ir.n_name

(* The syntactic lang lint already reports conditions and comparisons
   whose operands are all literal constants; do not double-report them. *)
let all_const_inputs t n =
  Array.for_all
    (fun eid ->
      match (Graph.edge t.g eid).Ir.source with
      | Ir.Const _ -> true
      | _ -> false)
    n.Ir.inputs

let syntactic_cond t eid =
  match (Graph.edge t.g eid).Ir.source with
  | Ir.Const _ -> true
  | Ir.Primary_input _ -> false
  | Ir.From_node nid -> all_const_inputs t (Graph.node t.g nid)

let pp_range f = Printf.sprintf "[%d,%d]" f.f_lo f.f_hi

let node_diagnostics t =
  let out = ref [] in
  let emit d = out := d :: !out in
  Graph.iter_nodes t.g ~f:(fun n ->
      let nid = n.Ir.n_id in
      (match (n.Ir.kind, t.ovf.(nid)) with
      | (Ir.Op_add | Ir.Op_sub | Ir.Op_mul), Some o ->
        let reach =
          match o.o_range with
          | Some (lo, hi) -> Printf.sprintf "reaches [%d,%d]" lo hi
          | None -> "exceeds the analyzable range"
        in
        emit
          (Diagnostic.warning ~rule:"range/overflow-possible"
             ~path:(node_path n) "%s %s %s %s at int%d" (pp_range o.o_a)
             (Ir.op_name n.Ir.kind) (pp_range o.o_b) reach n.Ir.n_width)
      | _ -> ());
      (match (n.Ir.kind, t.acc.(nid)) with
      | ( (Ir.Op_lt | Ir.Op_le | Ir.Op_gt | Ir.Op_ge | Ir.Op_eq | Ir.Op_ne),
          Fact f )
        when is_singleton f && not (all_const_inputs t n) ->
        let verdict = if f.f_lo = 0 then "false" else "true" in
        let operand i =
          match edge_fact t n.Ir.inputs.(i) with
          | Fact f -> pp_range f
          | Bot -> "[unreachable]"
        in
        emit
          (Diagnostic.warning ~rule:"range/comparison-constant"
             ~path:(node_path n) "comparison is always %s: %s %s %s" verdict
             (operand 0) (Ir.op_name n.Ir.kind) (operand 1))
      | _ -> ());
      match (n.Ir.kind, t.acc.(nid)) with
      | ( ( Ir.Op_add | Ir.Op_sub | Ir.Op_mul | Ir.Op_shl | Ir.Op_shr
          | Ir.Op_loop_merge ),
          Fact f )
        when required_bits f <= n.Ir.n_width - 2 ->
        emit
          (Diagnostic.warning ~rule:"range/width-oversized" ~path:(node_path n)
             "declared int%d but every value %s fits int%d" n.Ir.n_width
             (pp_range f) (required_bits f))
      | _ -> ());
  List.rev !out

let branch_diagnostics t =
  let out = ref [] in
  let emit d = out := d :: !out in
  let rec walk region =
    match region with
    | Ir.R_ops _ -> ()
    | Ir.R_seq rs -> List.iter walk rs
    | Ir.R_if { cond_edge; then_r; else_r; sels } ->
      (match Hashtbl.find_opt t.branch cond_edge with
      | Some bi when bi.b_seen && not (syntactic_cond t cond_edge) ->
        let has_content r = Ir.region_nodes r <> [] || sels <> [] in
        if bi.b_else && not bi.b_then && has_content then_r then
          emit
            (Diagnostic.warning ~rule:"range/dead-branch"
               ~path:(Printf.sprintf "e%d:if" cond_edge)
               "then branch is never taken (condition is always false)");
        if bi.b_then && not bi.b_else && has_content else_r then
          emit
            (Diagnostic.warning ~rule:"range/dead-branch"
               ~path:(Printf.sprintf "e%d:if" cond_edge)
               "else branch is never taken (condition is always true)")
      | _ -> ());
      walk then_r;
      walk else_r
    | Ir.R_loop { cond_edge; cond_r; body; _ } ->
      (match Hashtbl.find_opt t.branch cond_edge with
      | Some bi
        when bi.b_seen && not bi.b_then
             && not (syntactic_cond t cond_edge)
             && Ir.region_nodes body <> [] ->
        emit
          (Diagnostic.warning ~rule:"range/dead-branch"
             ~path:(Printf.sprintf "e%d:while" cond_edge)
             "loop body never runs (condition is false on entry)")
      | _ -> ());
      walk cond_r;
      walk body
  in
  walk t.prog.Graph.top;
  List.rev !out

let diagnostics t = node_diagnostics t @ branch_diagnostics t

(* ------------------------------------------------------------------ *)
(* JSON dump for [impact_cli analyze].                                 *)
(* ------------------------------------------------------------------ *)

let dump_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\"program\":%S,\"edges\":[" t.prog.Graph.prog_name);
  let ne = Graph.edge_count t.g in
  for eid = 0 to ne - 1 do
    if eid > 0 then Buffer.add_char b ',';
    let e = Graph.edge t.g eid in
    let src =
      match e.Ir.source with
      | Ir.Const v -> Printf.sprintf "\"const\",\"value\":%d" (Bitvec.to_signed v)
      | Ir.Primary_input name -> Printf.sprintf "\"input\",\"input\":%S" name
      | Ir.From_node nid -> Printf.sprintf "\"node\",\"node\":%d" nid
    in
    (match raw_edge_av t eid with
    | Bot ->
      Buffer.add_string b
        (Printf.sprintf "{\"edge\":%d,\"width\":%d,\"source\":%s,\"reachable\":false}"
           eid e.Ir.e_width src)
    | Fact f ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"edge\":%d,\"width\":%d,\"source\":%s,\"reachable\":true,\"lo\":%d,\"hi\":%d,\"known_zeros\":%d,\"known_ones\":%d,\"required_bits\":%d,\"active_bits\":%d}"
           eid e.Ir.e_width src f.f_lo f.f_hi f.f_zeros f.f_ones
           (required_bits f)
           (active_bits (Fact f) ~width:e.Ir.e_width)))
  done;
  Buffer.add_string b "]}";
  Buffer.contents b
