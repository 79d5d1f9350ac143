type shape = L of int | N of shape * shape

type t = { n : int; mutable tree : shape }

let rec shape_leaves = function
  | L i -> [ i ]
  | N (l, r) -> shape_leaves l @ shape_leaves r

let balanced_shape n =
  if n < 1 then invalid_arg "Muxnet.balanced_shape: need at least one leaf";
  let rec build lo hi =
    if lo = hi then L lo
    else
      let mid = (lo + hi) / 2 in
      N (build lo mid, build (mid + 1) hi)
  in
  build 0 (n - 1)

let create ~n_leaves = { n = n_leaves; tree = balanced_shape n_leaves }

let n_leaves t = t.n
let shape t = t.tree

let set_shape t shape =
  let leaves = List.sort Int.compare (shape_leaves shape) in
  if leaves <> List.init t.n Fun.id then
    invalid_arg "Muxnet.set_shape: shape is not a permutation tree over the leaves";
  t.tree <- shape

let depth_of_leaf t i =
  let rec find depth = function
    | L j -> if i = j then Some depth else None
    | N (l, r) -> (
      match find (depth + 1) l with Some d -> Some d | None -> find (depth + 1) r)
  in
  match find 0 t.tree with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Muxnet.depth_of_leaf: leaf %d" i)

let max_depth t =
  let rec depth = function L _ -> 0 | N (l, r) -> 1 + max (depth l) (depth r) in
  depth t.tree

let mux_count t = t.n - 1

(* Equation (7), evaluated bottom-up.  Each internal mux contributes
   (a_l p_l + a_r p_r) / (p_l + p_r); its output behaves as a signal with
   that activity and probability p_l + p_r. *)
let tree_activity t ~a ~p =
  let rec eval = function
    | L i -> (0., a i, p i)
    | N (l, r) ->
      let suml, al, pl = eval l in
      let sumr, ar, pr = eval r in
      let ptot = pl +. pr in
      let amux = if ptot <= 0. then 0. else ((al *. pl) +. (ar *. pr)) /. ptot in
      (suml +. sumr +. amux, amux, ptot)
  in
  let total, _, _ = eval t.tree in
  total

(* Figure 12: HUFFMAN_CONSTRUCT.  Items are ordered by increasing ap; the
   two smallest are combined under a fresh mux; the combined item's ap is
   (sum of probabilities) × (sum of the subtree's mux activities), per the
   paper's pseudo-code. *)
type item = {
  it_shape : shape;
  it_prob : float;
  it_act_out : float;  (* activity at the subtree output *)
  it_act_sum : float;  (* total mux activity inside the subtree *)
  it_ap : float;
}

let restructure t ~ap =
  if t.n > 1 then begin
    let items =
      List.init t.n (fun i ->
          let a, p = ap i in
          { it_shape = L i; it_prob = p; it_act_out = a; it_act_sum = 0.; it_ap = a *. p })
    in
    let sort items = List.sort (fun x y -> Float.compare x.it_ap y.it_ap) items in
    let combine x y =
      let ptot = x.it_prob +. y.it_prob in
      let amux =
        if ptot <= 0. then 0.
        else ((x.it_act_out *. x.it_prob) +. (y.it_act_out *. y.it_prob)) /. ptot
      in
      let act_sum = x.it_act_sum +. y.it_act_sum +. amux in
      {
        it_shape = N (x.it_shape, y.it_shape);
        it_prob = ptot;
        it_act_out = amux;
        it_act_sum = act_sum;
        it_ap = ptot *. act_sum;
      }
    in
    let rec construct = function
      | [] -> assert false
      | [ only ] -> only.it_shape
      | x :: y :: rest -> construct (sort (combine x y :: rest))
    in
    t.tree <- construct (sort items)
  end

let copy t = { t with tree = t.tree }

let rec equal_shape a b =
  match (a, b) with
  | L i, L j -> i = j
  | N (l1, r1), N (l2, r2) -> equal_shape l1 l2 && equal_shape r1 r2
  | L _, N _ | N _, L _ -> false
