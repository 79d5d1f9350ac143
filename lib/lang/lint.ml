module Diagnostic = Impact_util.Diagnostic

let path_of (pos : Ast.pos) = Printf.sprintf "line %d" pos.Ast.line

let warn ~rule pos fmt = Diagnostic.warning ~rule ~path:(path_of pos) fmt

(* Constant-fold just enough of an expression to know whether a condition is
   fixed: literals, booleans, [!], casts, comparisons of literal operands
   and the boolean connectives.  Arithmetic is deliberately not folded —
   its wrap-around semantics depend on the inferred width, which the AST
   does not carry — so anything touching a variable or an arithmetic
   operator is dynamic. *)
let rec const_int (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.E_lit n -> Some n
  | Ast.E_bool b -> Some (Bool.to_int b)
  | Ast.E_unop (Ast.U_neg, e) -> Option.map Int.neg (const_int e)
  | Ast.E_cast (_, e) -> const_int e
  | _ -> None

let rec const_bool (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.E_lit n -> Some (n <> 0)
  | Ast.E_bool b -> Some b
  | Ast.E_unop (Ast.U_not, e) -> Option.map not (const_bool e)
  | Ast.E_cast (_, e) -> const_bool e
  | Ast.E_binop (Ast.B_and, a, b) -> (
    match (const_bool a, const_bool b) with
    | Some false, _ | _, Some false -> Some false
    | Some true, Some true -> Some true
    | _ -> None)
  | Ast.E_binop (Ast.B_or, a, b) -> (
    match (const_bool a, const_bool b) with
    | Some true, _ | _, Some true -> Some true
    | Some false, Some false -> Some false
    | _ -> None)
  | Ast.E_binop (op, a, b) -> (
    match (const_int a, const_int b) with
    | Some x, Some y -> (
      match op with
      | Ast.B_lt -> Some (x < y)
      | Ast.B_le -> Some (x <= y)
      | Ast.B_gt -> Some (x > y)
      | Ast.B_ge -> Some (x >= y)
      | Ast.B_eq -> Some (x = y)
      | Ast.B_ne -> Some (x <> y)
      | _ -> None)
    | _ -> None)
  | _ -> None

let rec expr_vars acc (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.E_lit _ | Ast.E_bool _ -> acc
  | Ast.E_var v -> v :: acc
  | Ast.E_unop (_, e) | Ast.E_cast (_, e) -> expr_vars acc e
  | Ast.E_binop (_, a, b) -> expr_vars (expr_vars acc a) b

module Sset = Set.Make (String)

let rec assigned_anywhere acc stmts =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      match s.Ast.s_desc with
      | Ast.S_decl (v, _, _) | Ast.S_assign (v, _) -> Sset.add v acc
      | Ast.S_if (_, t, e) -> assigned_anywhere (assigned_anywhere acc t) e
      | Ast.S_while (_, body) -> assigned_anywhere acc body)
    acc stmts

let check (p : Ast.program) =
  let issues = ref [] in
  let emit d = issues := d :: !issues in
  let results = Sset.of_list (List.map fst p.Ast.results) in
  (* Definite-assignment dataflow: [assigned] is the set of variables known
     to hold an explicit value on every path reaching the program point.
     Parameters and declarations (which always carry initializers) are
     definite; only results can be read before their first assignment. *)
  let check_read assigned pos v =
    if Sset.mem v results && not (Sset.mem v assigned) then
      emit
        (warn ~rule:"lang/use-before-assign" pos
           "result %s is read before any assignment (implicit 0)" v)
  in
  let check_expr assigned (e : Ast.expr) =
    List.iter (check_read assigned e.Ast.pos) (expr_vars [] e)
  in
  let rec check_block assigned ~reachable stmts =
    match stmts with
    | [] -> assigned
    | (s : Ast.stmt) :: rest ->
      if not !reachable then begin
        emit (warn ~rule:"lang/dead-code" s.Ast.s_pos "statement is unreachable");
        (* One diagnostic per dead region, not one per statement. *)
        reachable := true;
        check_block assigned ~reachable rest
      end
      else begin
        let assigned =
          match s.Ast.s_desc with
          | Ast.S_decl (v, _, e) ->
            check_expr assigned e;
            Sset.add v assigned
          | Ast.S_assign (v, e) ->
            check_expr assigned e;
            Sset.add v assigned
          | Ast.S_if (cond, then_s, else_s) ->
            check_expr assigned cond;
            (match const_bool cond with
            | Some b ->
              let dead = if b then else_s else then_s in
              (match dead with
              | { Ast.s_pos; _ } :: _ ->
                emit
                  (warn ~rule:"lang/unreachable-branch" s_pos
                     "branch is unreachable: condition is always %b" b)
              | [] -> ())
            | None -> ());
            let after_then = check_block assigned ~reachable:(ref true) then_s in
            let after_else = check_block assigned ~reachable:(ref true) else_s in
            (* A constant condition pins execution to one branch. *)
            (match const_bool cond with
            | Some true -> after_then
            | Some false -> after_else
            | None -> Sset.inter after_then after_else)
          | Ast.S_while (cond, body) ->
            check_expr assigned cond;
            (match const_bool cond with
            | Some false ->
              (match body with
              | { Ast.s_pos; _ } :: _ ->
                emit
                  (warn ~rule:"lang/loop-never-runs" s_pos
                     "loop body is unreachable: condition is always false")
              | [] -> ())
            | Some true ->
              emit
                (warn ~rule:"lang/infinite-loop" s.Ast.s_pos
                   "loop condition is always true and the language has no break");
              reachable := false
            | None ->
              let cond_vars = Sset.of_list (expr_vars [] cond) in
              if
                not (Sset.is_empty cond_vars)
                && Sset.is_empty
                     (Sset.inter cond_vars (assigned_anywhere Sset.empty body))
              then
                emit
                  (warn ~rule:"lang/loop-invariant-cond" s.Ast.s_pos
                     "no variable of the loop condition is assigned in the \
                      body; the condition never changes once entered"));
            (* The body may run zero times: its assignments are not definite
               after the loop. *)
            ignore (check_block assigned ~reachable:(ref true) body);
            assigned
        in
        check_block assigned ~reachable rest
      end
  in
  let params = Sset.of_list (List.map fst p.Ast.params) in
  let final = check_block params ~reachable:(ref true) p.Ast.body in
  ignore final;
  let ever_assigned = assigned_anywhere Sset.empty p.Ast.body in
  Sset.iter
    (fun r ->
      if not (Sset.mem r ever_assigned) then
        emit
          (Diagnostic.warning ~rule:"lang/result-never-assigned" ~path:"results"
             "result %s is never assigned (always 0)" r))
    results;
  List.rev !issues
