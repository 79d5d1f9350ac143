(** Static lint of behavioral programs (AST level).

    Advisory analyses that parsing and type checking do not cover; rules
    are prefixed ["lang/"].  All findings are warnings — the language gives
    every result an implicit initial value of 0 and has no undefined
    behaviour, so nothing here blocks synthesis — but each one flags a
    program that almost certainly does not mean what it says.

    Rules:
    - [lang/use-before-assign]: a result is read before any assignment
      (it silently reads the implicit 0);
    - [lang/result-never-assigned]: a result is never assigned on any path;
    - [lang/unreachable-branch]: an [if] with a constant condition has a
      branch that can never execute;
    - [lang/loop-never-runs]: a [while] with a constant-false condition;
    - [lang/infinite-loop]: a [while] with a constant-true condition
      (the language has no [break]);
    - [lang/dead-code]: statements following an infinite loop;
    - [lang/loop-invariant-cond]: no variable of a loop condition is
      assigned in the loop body, so the condition never changes once
      entered. *)

val check : Ast.program -> Impact_util.Diagnostic.t list
