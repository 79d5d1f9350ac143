(** Abstract syntax of the behavioral input language.

    The language is a small C-like process description: fixed-width integer
    variables, assignments, conditionals, [while]/[for] loops — exactly the
    constructs the paper's CDFG model represents (nested loops and
    conditionals, no arrays, no procedure calls).  A process reads its
    parameters once per activation and delivers its results when it
    terminates. *)

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
  | E_cast of int * expr  (** [intN(e)]: sign-extend or truncate to N bits *)

type stmt = { s_desc : stmt_desc; s_pos : pos }

and stmt_desc =
  | S_decl of string * int * expr  (** [var x : intN = e;] *)
  | S_assign of string * expr
  | S_if of expr * stmt list * stmt list
  | S_while of expr * stmt list

type program = {
  p_name : string;
  params : (string * int) list;  (** name, width *)
  results : (string * int) list;
  body : stmt list;
}

val pp_pos : Format.formatter -> pos -> unit
