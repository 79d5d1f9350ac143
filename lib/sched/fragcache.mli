(** A stub of the deleted schedule-fragment cache, read only by the
    benchmark harness ([perfbench/]), which still creates one, passes it to
    {!Scheduler.schedule} and reads its counters.  The scheduler memoises
    no fragments: a reschedule from the schedule plan costs less than
    keying and copying its regions did. *)

type t

val create : ?context:string -> unit -> t
(** A stub; [context] is ignored. *)

val counters : t -> int * int
(** Always [(0, 0)]: no fragment is reused or filed. *)

val entries : t -> int
(** Always [0]. *)
