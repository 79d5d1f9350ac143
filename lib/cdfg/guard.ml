type atom = { cond_edge : Ir.edge_id; value : bool }

type t = atom list

let always = []

let atom cond_edge value = [ { cond_edge; value } ]

let of_control { Ir.ctrl_edge; polarity } =
  { cond_edge = ctrl_edge; value = (match polarity with Ir.Active_high -> true | Ir.Active_low -> false) }

let compare_atom a b =
  let c = Int.compare a.cond_edge b.cond_edge in
  if c <> 0 then c else Bool.compare a.value b.value

let conflicts g h =
  List.exists
    (fun a -> List.exists (fun b -> a.cond_edge = b.cond_edge && a.value <> b.value) h)
    g

let conj g h =
  if conflicts g h then invalid_arg "Guard.conj: contradictory guards";
  List.sort_uniq compare_atom (g @ h)

let implies g h = List.for_all (fun b -> List.exists (fun a -> compare_atom a b = 0) g) h

let equal g h = List.compare compare_atom g h = 0
let compare g h = List.compare compare_atom g h

let value_of e g =
  List.find_opt (fun a -> a.cond_edge = e) g |> Option.map (fun a -> a.value)

let remove_edge e g = List.filter (fun a -> a.cond_edge <> e) g

let atoms g = g

let pp ppf = function
  | [] -> Format.pp_print_string ppf "T"
  | g ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "&")
      (fun ppf a -> Format.fprintf ppf "%se%d" (if a.value then "" else "!") a.cond_edge)
      ppf g

let to_string g = Format.asprintf "%a" pp g
