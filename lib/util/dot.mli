(** Minimal Graphviz (dot) emitter used to dump CDFGs, STGs and datapaths. *)

type t

val create : name:string -> t

val node : t -> id:string -> ?shape:string -> ?style:string -> string -> unit
(** [node t ~id label] declares a node once; later declarations with the same
    id are ignored. *)

val edge : t -> ?style:string -> ?label:string -> string -> string -> unit

val render : t -> string
