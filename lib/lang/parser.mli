(** Recursive-descent parser for the behavioral language.

    [for (init; cond; update) { body }] is desugared into
    [init; while (cond) { body; update }] so the rest of the pipeline only
    sees [while] loops. *)

exception Error of string * Ast.pos

val parse : string -> Ast.program
(** @raise Error on syntax errors, with the offending position.
    @raise Lexer.Error on lexical errors. *)
