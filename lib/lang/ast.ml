type pos = { line : int; col : int }

type unop = U_neg | U_not

type binop =
  | B_add
  | B_sub
  | B_mul
  | B_lt
  | B_le
  | B_gt
  | B_ge
  | B_eq
  | B_ne
  | B_and
  | B_or
  | B_shl
  | B_shr

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | E_lit of int
  | E_bool of bool
  | E_var of string
  | E_unop of unop * expr
  | E_binop of binop * expr * expr
  | E_cast of int * expr

type stmt = { s_desc : stmt_desc; s_pos : pos }

and stmt_desc =
  | S_decl of string * int * expr
  | S_assign of string * expr
  | S_if of expr * stmt list * stmt list
  | S_while of expr * stmt list

type program = {
  p_name : string;
  params : (string * int) list;
  results : (string * int) list;
  body : stmt list;
}

let pp_pos ppf { line; col } = Format.fprintf ppf "line %d, column %d" line col
