(** Text and Graphviz rendering of CDFGs. *)

val pp_region : Graph.t -> Format.formatter -> Ir.region -> unit

val to_dot : Graph.program -> string
(** Control edges are dashed, matching the paper's figures. *)

val dump_dot : Graph.program -> string -> unit
(** Writes the dot rendering to a file. *)
