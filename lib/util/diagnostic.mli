(** Shared diagnostic currency of the static verification framework.

    Every checker in the pipeline — the language lint, the CDFG validator,
    the schedule checker, the binding/RTL/power analyzers — reports findings
    as values of this one type, so the [Verify] orchestrator, the
    [impact_cli lint] front end and the verify oracle ([IMPACT_CHECK])
    can render, filter and gate on them uniformly.

    A diagnostic names the {e rule} that fired (a stable kebab-case id such
    as ["binding/fu-state-conflict"]), a {e severity}, a slash-separated
    {e location path} (e.g. ["cordic/stg/state 7"]; checkers emit
    layer-relative paths and the orchestrator prefixes the design and layer
    names), and a human-readable message. *)

type severity = Error | Warning | Info

type t = {
  rule : string;  (** stable rule id, e.g. ["cdfg/width-mismatch"] *)
  severity : severity;
  path : string;  (** location path, e.g. ["stg/state 7"] *)
  message : string;
}

val error : rule:string -> path:string -> ('a, unit, string, t) format4 -> 'a
val warning : rule:string -> path:string -> ('a, unit, string, t) format4 -> 'a
val info : rule:string -> path:string -> ('a, unit, string, t) format4 -> 'a

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val prefix : string -> t list -> t list
(** [prefix seg ds] prepends ["seg/"] to every diagnostic's path. *)

val is_error : t -> bool
val has_errors : t list -> bool
val errors : t list -> t list
(** Diagnostics of [Error] severity only. *)

val count : severity -> t list -> int

val compare : t -> t -> int
(** Orders by decreasing severity, then by path, rule and message — the
    rendering order of reports. *)

val to_string : t -> string
(** One line: ["error[cdfg/width-mismatch] node 3 (+1): ..."]. *)

val render_text : t list -> string
(** Sorted one-per-line rendering ("" for the empty list). *)

val render_json : t list -> string
(** A JSON array of [{"rule": ..., "severity": ..., "path": ...,
    "message": ...}] objects, sorted like {!render_text}.  Self-contained
    (no JSON library dependency); strings are escaped per RFC 8259. *)

val fail_on_errors : header:string -> t list -> unit
(** Raises [Failure] with [header] followed by one sorted line per
    [Error]-severity diagnostic, when there is any; otherwise returns. *)
