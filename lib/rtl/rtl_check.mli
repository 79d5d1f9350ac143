(** Structural verification of the datapath interconnect and controller.

    Rules are prefixed ["rtl/"]:
    - [rtl/mux-shape]: a network's tree is not a well-formed binary tree
      whose leaves are exactly a permutation of its fan-in set;
    - [rtl/fanin-cover]: a network's leaf keys do not exactly cover the
      fan-in set the binding implies for its port;
    - [rtl/net-driver]: two networks drive the same port (a net must have
      exactly one driver), or a single-source port carries a mux;
    - [rtl/missing-network]: a port with several distinct sources has no
      steering network (its input would float or short);
    - [rtl/net-width]: a network's width differs from its port's width;
    - [rtl/ctrl-code-width]: a controller state code is not [state_bits]
      wide;
    - [rtl/ctrl-code-clash]: two states share a code;
    - [rtl/ctrl-state-bits]: the state register is too narrow to encode all
      states. *)

val check :
  Impact_sched.Stg.t -> Datapath.t -> Impact_util.Diagnostic.t list
