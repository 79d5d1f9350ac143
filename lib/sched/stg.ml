module Ir = Impact_cdfg.Ir
module Guard = Impact_cdfg.Guard
module Vec = Impact_util.Vec
module Dot = Impact_util.Dot
module Keybuf = Impact_util.Keybuf

type phase = Normal | Merge_init | Merge_back

type firing = {
  f_node : Ir.node_id;
  f_phase : phase;
  f_guard : Guard.t;
  f_start_ns : float;
  f_finish_ns : float;
  f_chain_pos : int;
}

type state = { firings : firing list }

type transition = { t_guard : Guard.t; t_dst : int }

type t = {
  states : state array;
  succs : transition list array;
  entry : int;
  exit_id : int;
  clock_ns : float;
}

let state_count t = Array.length t.states - 1

let firings_of t s = t.states.(s).firings

let iter_firings t ~f =
  Array.iteri (fun s state -> List.iter (f s) state.firings) t.states

let state_critical_path_ns t s =
  List.fold_left (fun acc fr -> max acc fr.f_finish_ns) 0. t.states.(s).firings

let critical_path_ns t =
  let acc = ref 0. in
  Array.iteri (fun s _ -> acc := max !acc (state_critical_path_ns t s)) t.states;
  !acc

(* A canonical rendering of the full STG structure: every field the power
   estimator, the controller and the lifetime analysis read.  Floats are
   rendered in hex so distinct schedules never collide by rounding. *)
let signature t =
  let buf = Buffer.create 512 in
  let int n = Buffer.add_string buf (string_of_int n) in
  let guard g =
    List.iter
      (fun (a : Guard.atom) ->
        Buffer.add_char buf (if a.Guard.value then '+' else '-');
        int a.Guard.cond_edge)
      (Guard.atoms g)
  in
  Buffer.add_string buf (Printf.sprintf "%h;" t.clock_ns);
  int t.entry;
  Buffer.add_char buf ';';
  int t.exit_id;
  Array.iteri
    (fun s state ->
      Buffer.add_char buf '|';
      int s;
      List.iter
        (fun fr ->
          Buffer.add_char buf ':';
          int fr.f_node;
          Buffer.add_char buf
            (match fr.f_phase with Normal -> 'n' | Merge_init -> 'i' | Merge_back -> 'b');
          guard fr.f_guard;
          Buffer.add_string buf (Printf.sprintf "@%h,%h," fr.f_start_ns fr.f_finish_ns);
          int fr.f_chain_pos)
        state.firings;
      Buffer.add_char buf '/';
      List.iter
        (fun tr ->
          Buffer.add_char buf '>';
          int tr.t_dst;
          guard tr.t_guard)
        t.succs.(s))
    t.states;
  Buffer.contents buf

(* The schedule's shape as compact bytes ({!Keybuf}): every field of
   [signature] except the firings' start and finish times.  It keys the
   estimator's per-schedule tables, none of which reads those times, so a
   reschedule that only moves firings inside their states hits them. *)
let key t =
  let kb = Keybuf.create 1024 in
  let guard kb g =
    Keybuf.list kb
      (fun kb (a : Guard.atom) ->
        Keybuf.tag kb (if a.Guard.value then '+' else '-');
        Keybuf.int kb a.Guard.cond_edge)
      (Guard.atoms g)
  in
  Keybuf.float kb t.clock_ns;
  Keybuf.int kb t.entry;
  Keybuf.int kb t.exit_id;
  Keybuf.int kb (Array.length t.states);
  Array.iteri
    (fun s state ->
      Keybuf.list kb
        (fun kb fr ->
          Keybuf.int kb fr.f_node;
          Keybuf.tag kb
            (match fr.f_phase with Normal -> 'n' | Merge_init -> 'i' | Merge_back -> 'b');
          guard kb fr.f_guard;
          Keybuf.int kb fr.f_chain_pos)
        state.firings;
      Keybuf.list kb
        (fun kb tr ->
          Keybuf.int kb tr.t_dst;
          guard kb tr.t_guard)
        t.succs.(s))
    t.states;
  Keybuf.contents kb

let pp ppf t =
  Format.fprintf ppf "STG: %d states (entry %d, exit %d, clock %.1f ns)@."
    (Array.length t.states) t.entry t.exit_id t.clock_ns;
  Array.iteri
    (fun s state ->
      let ops =
        state.firings
        |> List.map (fun fr ->
               let tag =
                 match fr.f_phase with
                 | Normal -> ""
                 | Merge_init -> "!i"
                 | Merge_back -> "!b"
               in
               Printf.sprintf "n%d%s@%.1f" fr.f_node tag fr.f_finish_ns)
        |> String.concat " "
      in
      let outs =
        t.succs.(s)
        |> List.map (fun { t_guard; t_dst } ->
               Printf.sprintf "[%s]->%d" (Guard.to_string t_guard) t_dst)
        |> String.concat " "
      in
      Format.fprintf ppf "  s%d: {%s} %s@." s ops outs)
    t.states

let to_dot t =
  let dot = Dot.create ~name:"stg" in
  Array.iteri
    (fun s state ->
      let label =
        if s = t.exit_id then "EXIT"
        else
          Printf.sprintf "s%d\n%s" s
            (String.concat " "
               (List.map (fun fr -> Printf.sprintf "n%d" fr.f_node) state.firings))
      in
      Dot.node dot ~id:(string_of_int s)
        ~shape:(if s = t.entry then "doubleoctagon" else "box")
        label)
    t.states;
  Array.iteri
    (fun s trs ->
      List.iter
        (fun { t_guard; t_dst } ->
          Dot.edge dot
            ~label:(Guard.to_string t_guard)
            (string_of_int s) (string_of_int t_dst))
        trs)
    t.succs;
  Dot.render dot

(* --- Fragments ---------------------------------------------------------- *)

type frag = {
  fstates : state Vec.t;
  ftrans : transition list Vec.t;  (* parallel to fstates *)
  mutable fentry : int;
  mutable fexits : (int * Guard.t) list;  (* in insertion order *)
}

let frag_create () =
  { fstates = Vec.create (); ftrans = Vec.create (); fentry = 0; fexits = [] }

let frag_add_state f state =
  let id = Vec.push f.fstates state in
  let id' = Vec.push f.ftrans [] in
  assert (id = id');
  id

let frag_add_transition f ~src guard ~dst =
  Vec.set f.ftrans src ({ t_guard = guard; t_dst = dst } :: Vec.get f.ftrans src)

let frag_set_entry f id = f.fentry <- id
let frag_add_exit f ~src guard = f.fexits <- f.fexits @ [ (src, guard) ]
let frag_entry f = f.fentry
let frag_exits f = f.fexits
let frag_set_exits f exits = f.fexits <- exits
let frag_state f id = Vec.get f.fstates id
let frag_state_count f = Vec.length f.fstates
let frag_succs f id = Vec.get f.ftrans id

let frag_of_chain states =
  match states with
  | [] -> invalid_arg "Stg.frag_of_chain: empty"
  | _ ->
    let f = frag_create () in
    let ids = List.map (frag_add_state f) states in
    let rec link = function
      | a :: (b :: _ as rest) ->
        frag_add_transition f ~src:a Guard.always ~dst:b;
        link rest
      | [ last ] -> frag_add_exit f ~src:last Guard.always
      | [] -> ()
    in
    link ids;
    (match ids with id :: _ -> frag_set_entry f id | [] -> ());
    f

let frag_empty () = frag_of_chain [ { firings = [] } ]

(* Copies [src] into [dst] with renumbered states; returns the offset. *)
let absorb dst src =
  let offset = frag_state_count dst in
  Vec.iteri src.fstates ~f:(fun _ st -> ignore (frag_add_state dst st));
  Vec.iteri src.ftrans ~f:(fun i trs ->
      List.iter
        (fun { t_guard; t_dst } ->
          frag_add_transition dst ~src:(i + offset) t_guard ~dst:(t_dst + offset))
        trs);
  offset

let graft = absorb

let seq f1 f2 =
  let offset = absorb f1 f2 in
  List.iter
    (fun (s, g) -> frag_add_transition f1 ~src:s g ~dst:(f2.fentry + offset))
    f1.fexits;
  f1.fexits <- List.map (fun (s, g) -> (s + offset, g)) f2.fexits;
  f1

let fork prefix ~cond_edge ~then_f ~else_f =
  let then_off = absorb prefix then_f in
  let else_off = absorb prefix else_f in
  List.iter
    (fun (s, g) ->
      frag_add_transition prefix ~src:s
        (Guard.conj g (Guard.atom cond_edge true))
        ~dst:(then_f.fentry + then_off);
      frag_add_transition prefix ~src:s
        (Guard.conj g (Guard.atom cond_edge false))
        ~dst:(else_f.fentry + else_off))
    prefix.fexits;
  prefix.fexits <-
    List.map (fun (s, g) -> (s + then_off, g)) then_f.fexits
    @ List.map (fun (s, g) -> (s + else_off, g)) else_f.fexits;
  prefix

let back_edges f ~cond_edge ~target =
  let exits = f.fexits in
  f.fexits <- [];
  List.iter
    (fun (s, g) ->
      frag_add_transition f ~src:s (Guard.conj g (Guard.atom cond_edge true)) ~dst:target;
      f.fexits <- f.fexits @ [ (s, Guard.conj g (Guard.atom cond_edge false)) ])
    exits;
  f

exception Product_too_large

(* Synchronous product.  Side-local state [-1] means the side has exited and
   idles.  Transitions into (-1, -1) become the exits of the product. *)
let par ?(max_states = 20_000) f1 f2 =
  let result = frag_create () in
  let index = Hashtbl.create 64 in
  let pending = Queue.create () in
  let state_of side i = if i = -1 then { firings = [] } else frag_state side i in
  (* All ways a side can advance from local state i: (guard, next) where
     next = -1 encodes "exit". *)
  let options side i =
    if i = -1 then [ (Guard.always, -1) ]
    else
      List.map (fun { t_guard; t_dst } -> (t_guard, t_dst)) (frag_succs side i)
      @ List.filter_map
          (fun (s, g) -> if s = i then Some (g, -1) else None)
          side.fexits
  in
  let id_of (i, j) =
    match Hashtbl.find_opt index (i, j) with
    | Some id -> id
    | None ->
      let merged =
        { firings = (state_of f1 i).firings @ (state_of f2 j).firings }
      in
      let id = frag_add_state result merged in
      if frag_state_count result > max_states then raise Product_too_large;
      Hashtbl.add index (i, j) id;
      Queue.add (i, j) pending;
      id
  in
  let entry = id_of (f1.fentry, f2.fentry) in
  frag_set_entry result entry;
  while not (Queue.is_empty pending) do
    let i, j = Queue.pop pending in
    let src = Hashtbl.find index (i, j) in
    List.iter
      (fun (g1, n1) ->
        List.iter
          (fun (g2, n2) ->
            if not (Guard.conflicts g1 g2) then begin
              let g = Guard.conj g1 g2 in
              if n1 = -1 && n2 = -1 then frag_add_exit result ~src g
              else frag_add_transition result ~src g ~dst:(id_of (n1, n2))
            end)
          (options f2 j))
      (options f1 i)
  done;
  result

let instantiate f ~clock_ns =
  let n = frag_state_count f in
  let reach = Array.make n false in
  let rec visit s =
    if not reach.(s) then begin
      reach.(s) <- true;
      List.iter (fun { t_dst; _ } -> visit t_dst) (frag_succs f s)
    end
  in
  visit f.fentry;
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if reach.(s) then begin
      remap.(s) <- !next;
      incr next
    end
  done;
  let total = !next + 1 in
  let exit_id = !next in
  let states = Array.make total { firings = [] } in
  let succs = Array.make total [] in
  for s = 0 to n - 1 do
    if reach.(s) then begin
      states.(remap.(s)) <- frag_state f s;
      succs.(remap.(s)) <-
        List.rev_map
          (fun { t_guard; t_dst } -> { t_guard; t_dst = remap.(t_dst) })
          (frag_succs f s)
    end
  done;
  List.iter
    (fun (s, g) ->
      if reach.(s) then
        succs.(remap.(s)) <- succs.(remap.(s)) @ [ { t_guard = g; t_dst = exit_id } ])
    f.fexits;
  { states; succs; entry = remap.(f.fentry); exit_id; clock_ns }
