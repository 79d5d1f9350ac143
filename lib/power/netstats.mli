(** Per-leaf statistics of every multiplexer network: transition activity
    [a_i] (from the value's trace) and propagation probability [p_i] (from
    access frequencies in the event log).  These are exactly the inputs of
    Equation (7) and of the Huffman restructuring move. *)

type leaf_stats = { a : float array; p : float array }

val network_stats :
  ?value_sw:(Impact_rtl.Datapath.key -> float) ->
  Impact_sim.Sim.run ->
  Impact_rtl.Datapath.t ->
  int ->
  leaf_stats
(** Statistics for one network (by index).  [value_sw] substitutes a
    (typically memoised) per-key transition-activity lookup for the raw
    trace scan — see {!Estimate.value_switching}. *)

(** {1 Signal statistics ([19])}

    The RT-level power estimator of [19] is driven by the mean and standard
    deviation of switching activities and the temporal/spatial correlation
    of signals; these are the corresponding statistics of our traces. *)

type signal_report = {
  sr_accesses : int;  (** total trace events *)
  sr_mean_switching : float;  (** mean per-bit Hamming between consecutive outputs *)
  sr_std_switching : float;
  sr_temporal_correlation : float;
      (** lag-1 autocorrelation of the switching series *)
}

val signal_report : Impact_sim.Sim.run -> Impact_cdfg.Ir.node_id -> signal_report

val spatial_correlation :
  Impact_sim.Sim.run -> Impact_cdfg.Ir.node_id -> Impact_cdfg.Ir.node_id -> float
(** Pearson correlation of the two signals' per-pass mean switching — how
    strongly their activities move together across the workload. *)
