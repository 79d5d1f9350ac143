(* Summary statistics and span bookkeeping for the benchmark.  Pure
   functions over float lists, so the unit tests can pin them exactly. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so quartile spreads computed here match Python's for the same
   values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples"
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile from a fixed ladder that still has at least
   [min_beyond] samples above it — a tail figure is only reported where it
   rests on real samples, never on one or two outliers. *)
let tail_percentile ?(min_beyond = 10) n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= float_of_int min_beyond -. 1e-9)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let geomean xs =
  match xs with
  | [] -> invalid_arg "geomean: no samples"
  | _ ->
    if List.exists (fun x -> not (x > 0.)) xs then invalid_arg "geomean: non-positive sample";
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* The median value of the timed samples [(time, value)] that fall inside
   [start, stop], or of the [k] nearest to it when fewer than [k] do. *)
let window_median ~k ~start ~stop samples =
  let dist (t, _) = if t < start then start -. t else if t > stop then t -. stop else 0. in
  let inside = List.filter (fun s -> dist s = 0.) samples in
  let chosen =
    if List.length inside >= k then inside
    else
      List.stable_sort (fun a b -> Float.compare (dist a) (dist b)) samples
      |> List.filteri (fun i _ -> i < k)
  in
  median (List.map snd chosen)

(* Self time of an interval: its length minus the part of it covered by the
   union of its children's intervals (children may overlap each other or
   stick out of the parent; both are clipped, nothing is counted twice). *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s start and e = Float.min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (covered, cur) (s, e) ->
        match cur with
        | None -> (covered, Some (s, e))
        | Some (cs, ce) ->
          if s <= ce then (covered, Some (cs, Float.max ce e))
          else (covered +. (ce -. cs), Some (s, e)))
      (0., None) clipped
  in
  let covered = match last with None -> covered | Some (s, e) -> covered +. (e -. s) in
  stop -. start -. covered
