(** Binding: the assignment of operations to functional units, of operation
    modules to units, and of values to registers.

    The initial binding is the paper's parallel architecture: one functional
    unit per operation (fastest module of its class) and one register per
    value.  The iterative-improvement moves transform bindings:
    share/split functional units, substitute modules, share/split
    registers.  A binding is a cheap, copyable value; moves return modified
    copies so the variable-depth search can backtrack. *)

module Ir := Impact_cdfg.Ir
module Module_library := Impact_modlib.Module_library

type t

val parallel : Impact_cdfg.Graph.t -> Module_library.t -> t
(** Fastest modules, no sharing. *)

val copy : t -> t
val graph : t -> Impact_cdfg.Graph.t
val library : t -> Module_library.t

(** {1 Functional units} *)

val fu_of : t -> Ir.node_id -> int option
(** [None] for structural nodes (Sel, merge, copy, output). *)

val fu_ids : t -> int list
(** Live unit ids, ascending. *)

val fu_ops : t -> int -> Ir.node_id list
val fu_module : t -> int -> Module_library.spec
val fu_width : t -> int -> int
val fu_count : t -> int

val share_fu : t -> int -> int -> (t, string) result
(** [share_fu t keep absorb] moves every operation of [absorb] onto [keep].
    Fails when the kept module cannot serve some operation's class or the
    widths differ. *)

val split_fu : t -> int -> Ir.node_id list -> (t, string) result
(** Moves the listed operations of a unit onto a fresh unit with the same
    module.  Fails when the list is empty, not a strict subset, or contains
    foreign operations. *)

val substitute_module : t -> int -> Module_library.spec -> (t, string) result
(** Fails when the new module cannot serve every operation on the unit. *)

(** {1 Registers} *)

val reg_of : t -> Ir.node_id -> int
(** Every node output has a register holding its value. *)

val reg_of_input : t -> string -> int
(** Primary inputs are latched in input registers. *)

val reg_ids : t -> int list
val reg_values : t -> int -> Ir.node_id list
val reg_input_names : t -> int -> string list
val reg_width : t -> int -> int
val reg_count : t -> int

val share_reg : t -> int -> int -> (t, string) result
(** Merge two registers of equal width (legality with respect to lifetimes
    is the caller's responsibility, checked against the schedule). *)

val split_reg : t -> int -> Ir.node_id list -> (t, string) result

val fu_area : t -> float
val reg_area : t -> float

val add_key : Impact_util.Keybuf.t -> t -> unit
(** Appends the binding's canonical key: every unit's module name and
    operations, every register's values and input names.  Two bindings
    write equal bytes iff they group operations into the same units with
    the same module names and values and inputs into the same registers,
    whatever their (history-dependent) unit and register ids. *)

(** {1 Portable form}

    A self-contained snapshot of the binding decision — unit/register
    groupings, module names with their characterisation, id counters —
    without the graph or the library object.  It is pure data (safe to
    [Marshal]), and round-trips {e exactly}: the snapshot preserves the
    internal table layout, so every enumeration order (and therefore every
    float summation such as {!fu_area}) is bit-identical after
    [of_portable].  This is what the persistent store writes to disk. *)

type portable

val to_portable : t -> portable

val of_portable :
  Impact_cdfg.Graph.t -> Module_library.t -> portable -> (t, string) result
(** Re-attaches a snapshot to a graph and library.  Fails — the caller
    treats it as a cache miss — when the graph's node count disagrees with
    the snapshot or a recorded module is unknown to (or characterised
    differently by) the library: both indicate the snapshot was taken
    against different inputs. *)
