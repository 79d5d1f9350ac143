exception Error of string * Ast.pos

type state = { toks : (Lexer.token * Ast.pos) array; mutable idx : int }

let current st = fst st.toks.(st.idx)
let current_pos st = snd st.toks.(st.idx)
let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

let fail st msg =
  raise
    (Error
       ( Printf.sprintf "%s (found %s)" msg (Lexer.token_name (current st)),
         current_pos st ))

let expect st tok msg =
  if current st = tok then advance st else fail st msg

let expect_ident st msg =
  match current st with
  | Lexer.IDENT name ->
    advance st;
    name
  | _ -> fail st msg

let parse_type st =
  match current st with
  | Lexer.KW_int n ->
    advance st;
    n
  | Lexer.KW_bool ->
    advance st;
    1
  | _ -> fail st "expected a type (intN or bool)"

let parse_params st =
  let rec loop acc =
    match current st with
    | Lexer.IDENT name ->
      advance st;
      expect st Lexer.COLON "expected ':' after parameter name";
      let width = parse_type st in
      let acc = (name, width) :: acc in
      if current st = Lexer.COMMA then begin
        advance st;
        loop acc
      end
      else List.rev acc
    | _ -> List.rev acc
  in
  loop []

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  let rec loop lhs =
    if current st = Lexer.OROR then begin
      let pos = current_pos st in
      advance st;
      let rhs = parse_and st in
      loop { Ast.desc = Ast.E_binop (Ast.B_or, lhs, rhs); pos }
    end
    else lhs
  in
  loop lhs

and parse_and st =
  let lhs = parse_cmp st in
  let rec loop lhs =
    if current st = Lexer.ANDAND then begin
      let pos = current_pos st in
      advance st;
      let rhs = parse_cmp st in
      loop { Ast.desc = Ast.E_binop (Ast.B_and, lhs, rhs); pos }
    end
    else lhs
  in
  loop lhs

and parse_cmp st =
  let lhs = parse_shift st in
  let op =
    match current st with
    | Lexer.LT -> Some Ast.B_lt
    | Lexer.LE -> Some Ast.B_le
    | Lexer.GT -> Some Ast.B_gt
    | Lexer.GE -> Some Ast.B_ge
    | Lexer.EQ -> Some Ast.B_eq
    | Lexer.NE -> Some Ast.B_ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    let pos = current_pos st in
    advance st;
    let rhs = parse_shift st in
    { Ast.desc = Ast.E_binop (op, lhs, rhs); pos }

and parse_shift st =
  let lhs = parse_add st in
  let rec loop lhs =
    let op =
      match current st with
      | Lexer.SHL -> Some Ast.B_shl
      | Lexer.SHR -> Some Ast.B_shr
      | _ -> None
    in
    match op with
    | None -> lhs
    | Some op ->
      let pos = current_pos st in
      advance st;
      let rhs = parse_add st in
      loop { Ast.desc = Ast.E_binop (op, lhs, rhs); pos }
  in
  loop lhs

and parse_add st =
  let lhs = parse_mul st in
  let rec loop lhs =
    let op =
      match current st with
      | Lexer.PLUS -> Some Ast.B_add
      | Lexer.MINUS -> Some Ast.B_sub
      | _ -> None
    in
    match op with
    | None -> lhs
    | Some op ->
      let pos = current_pos st in
      advance st;
      let rhs = parse_mul st in
      loop { Ast.desc = Ast.E_binop (op, lhs, rhs); pos }
  in
  loop lhs

and parse_mul st =
  let lhs = parse_unary st in
  let rec loop lhs =
    if current st = Lexer.STAR then begin
      let pos = current_pos st in
      advance st;
      let rhs = parse_unary st in
      loop { Ast.desc = Ast.E_binop (Ast.B_mul, lhs, rhs); pos }
    end
    else lhs
  in
  loop lhs

and parse_unary st =
  let pos = current_pos st in
  match current st with
  | Lexer.MINUS ->
    advance st;
    let e = parse_unary st in
    { Ast.desc = Ast.E_unop (Ast.U_neg, e); pos }
  | Lexer.BANG ->
    advance st;
    let e = parse_unary st in
    { Ast.desc = Ast.E_unop (Ast.U_not, e); pos }
  | _ -> parse_primary st

and parse_primary st =
  let pos = current_pos st in
  match current st with
  | Lexer.INT n ->
    advance st;
    { Ast.desc = Ast.E_lit n; pos }
  | Lexer.KW_true ->
    advance st;
    { Ast.desc = Ast.E_bool true; pos }
  | Lexer.KW_false ->
    advance st;
    { Ast.desc = Ast.E_bool false; pos }
  | Lexer.IDENT name ->
    advance st;
    { Ast.desc = Ast.E_var name; pos }
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    e
  | Lexer.KW_int width ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after width cast";
    let e = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    { Ast.desc = Ast.E_cast (width, e); pos }
  | _ -> fail st "expected an expression"

let rec parse_stmt st =
  let pos = current_pos st in
  match current st with
  | Lexer.KW_var ->
    advance st;
    let name = expect_ident st "expected variable name" in
    expect st Lexer.COLON "expected ':' in declaration";
    let width = parse_type st in
    expect st Lexer.ASSIGN "expected '=' in declaration";
    let e = parse_expr st in
    expect st Lexer.SEMI "expected ';'";
    [ { Ast.s_desc = Ast.S_decl (name, width, e); s_pos = pos } ]
  | Lexer.IDENT name ->
    advance st;
    expect st Lexer.ASSIGN "expected '=' in assignment";
    let e = parse_expr st in
    expect st Lexer.SEMI "expected ';'";
    [ { Ast.s_desc = Ast.S_assign (name, e); s_pos = pos } ]
  | Lexer.KW_if ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after if";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    let then_b = parse_block st in
    let else_b =
      if current st = Lexer.KW_else then begin
        advance st;
        if current st = Lexer.KW_if then parse_stmt st else parse_block st
      end
      else []
    in
    [ { Ast.s_desc = Ast.S_if (cond, then_b, else_b); s_pos = pos } ]
  | Lexer.KW_while ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after while";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "expected ')'";
    let body = parse_block st in
    [ { Ast.s_desc = Ast.S_while (cond, body); s_pos = pos } ]
  | Lexer.KW_for ->
    advance st;
    expect st Lexer.LPAREN "expected '(' after for";
    let init = parse_for_clause st pos in
    expect st Lexer.SEMI "expected ';' after for initialiser";
    let cond = parse_expr st in
    expect st Lexer.SEMI "expected ';' after for condition";
    let update = parse_for_clause st pos in
    expect st Lexer.RPAREN "expected ')'";
    let body = parse_block st in
    init @ [ { Ast.s_desc = Ast.S_while (cond, body @ update); s_pos = pos } ]
  | _ -> fail st "expected a statement"

(* A for-clause is a declaration or an assignment without the trailing
   semicolon. *)
and parse_for_clause st pos =
  match current st with
  | Lexer.KW_var ->
    advance st;
    let name = expect_ident st "expected variable name" in
    expect st Lexer.COLON "expected ':' in declaration";
    let width = parse_type st in
    expect st Lexer.ASSIGN "expected '='";
    let e = parse_expr st in
    [ { Ast.s_desc = Ast.S_decl (name, width, e); s_pos = pos } ]
  | Lexer.IDENT name ->
    advance st;
    expect st Lexer.ASSIGN "expected '='";
    let e = parse_expr st in
    [ { Ast.s_desc = Ast.S_assign (name, e); s_pos = pos } ]
  | _ -> fail st "expected an assignment"

and parse_block st =
  expect st Lexer.LBRACE "expected '{'";
  let rec loop acc =
    if current st = Lexer.RBRACE then begin
      advance st;
      List.rev acc
    end
    else loop (List.rev_append (parse_stmt st) acc)
  in
  loop []

let parse src =
  let st = { toks = Array.of_list (Lexer.tokenize src); idx = 0 } in
  expect st Lexer.KW_process "expected 'process'";
  let p_name = expect_ident st "expected process name" in
  expect st Lexer.LPAREN "expected '('";
  let params = parse_params st in
  expect st Lexer.RPAREN "expected ')'";
  expect st Lexer.ARROW "expected '->'";
  expect st Lexer.LPAREN "expected '(' before results";
  let results = parse_params st in
  expect st Lexer.RPAREN "expected ')'";
  let body = parse_block st in
  if current st <> Lexer.EOF then fail st "trailing input after process body";
  { Ast.p_name; params; results; body }
