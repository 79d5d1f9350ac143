type node_id = int
type edge_id = int
type loop_id = int

type polarity = Active_high | Active_low

type control = { ctrl_edge : edge_id; polarity : polarity }

type op_kind =
  | Op_add
  | Op_sub
  | Op_mul
  | Op_lt
  | Op_le
  | Op_gt
  | Op_ge
  | Op_eq
  | Op_ne
  | Op_and
  | Op_or
  | Op_xor
  | Op_not
  | Op_shl
  | Op_shr
  | Op_copy
  | Op_resize
  | Op_select
  | Op_loop_merge
  | Op_end_loop
  | Op_output of string

type source =
  | From_node of node_id
  | Const of Impact_util.Bitvec.t
  | Primary_input of string

type edge = {
  e_id : edge_id;
  source : source;
  e_width : int;
  label : string option;
}

type node = {
  n_id : node_id;
  kind : op_kind;
  inputs : edge_id array;
  ctrl : control option;
  n_width : int;
  loops : loop_id list;
  n_name : string;
}

type region =
  | R_ops of node_id list
  | R_seq of region list
  | R_if of {
      cond_edge : edge_id;
      then_r : region;
      else_r : region;
      sels : node_id list;
    }
  | R_loop of {
      loop : loop_id;
      merges : node_id list;
      cond_r : region;
      cond_edge : edge_id;
      body : region;
      elps : node_id list;
    }

let op_arity = function
  | Op_add | Op_sub | Op_mul | Op_lt | Op_le | Op_gt | Op_ge | Op_eq | Op_ne
  | Op_and | Op_or | Op_xor | Op_shl | Op_shr ->
    2
  | Op_not | Op_copy | Op_resize | Op_end_loop | Op_output _ -> 1
  | Op_select -> 3
  | Op_loop_merge -> 2

let op_name = function
  | Op_add -> "+"
  | Op_sub -> "-"
  | Op_mul -> "*"
  | Op_lt -> "<"
  | Op_le -> "<="
  | Op_gt -> ">"
  | Op_ge -> ">="
  | Op_eq -> "=="
  | Op_ne -> "!="
  | Op_and -> "&&"
  | Op_or -> "||"
  | Op_xor -> "^"
  | Op_not -> "!"
  | Op_shl -> "<<"
  | Op_shr -> ">>"
  | Op_copy -> "copy"
  | Op_resize -> "rsz"
  | Op_select -> "Sel"
  | Op_loop_merge -> "Mrg"
  | Op_end_loop -> "Elp"
  | Op_output name -> "Out:" ^ name

let is_condition_producer = function
  | Op_lt | Op_le | Op_gt | Op_ge | Op_eq | Op_ne | Op_and | Op_or | Op_xor
  | Op_not ->
    true
  | Op_add | Op_sub | Op_mul | Op_shl | Op_shr | Op_copy | Op_resize | Op_select
  | Op_loop_merge | Op_end_loop | Op_output _ ->
    false

let region_nodes region =
  let rec collect acc = function
    | R_ops ids -> List.rev_append ids acc
    | R_seq rs -> List.fold_left collect acc rs
    | R_if { then_r; else_r; sels; _ } ->
      let acc = collect acc then_r in
      let acc = collect acc else_r in
      List.rev_append sels acc
    | R_loop { merges; cond_r; body; elps; _ } ->
      let acc = List.rev_append merges acc in
      let acc = collect acc cond_r in
      let acc = collect acc body in
      List.rev_append elps acc
  in
  List.rev (collect [] region)

let pp_polarity ppf = function
  | Active_high -> Format.pp_print_string ppf "+"
  | Active_low -> Format.pp_print_string ppf "-"
