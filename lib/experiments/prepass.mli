(** ANALYZE benchmark section: what the static pre-pass buys.

    Over a generated instance batch (same distribution as Tables I–III),
    measures the analyzer's decision rates against the pre-existing
    utilization filter ([r > 1]), the volume of forced/blocked facts it
    derives, and — the acceptance measurement — the dedicated CSP2
    solver's search-node counts with and without the pruned domains on
    the instances the analyzer leaves undecided. *)

type totals = {
  instances : int;
  old_filter_refuted : int;  (** Refuted by utilization alone ([r > 1]). *)
  static_refuted : int;  (** Analyzer [Infeasible]; always >= the above. *)
  certificates_valid : int;  (** Refutations whose certificate re-validated. *)
  static_schedules : int;  (** Analyzer [Trivially_feasible]. *)
  pruned_with_facts : int;  (** [Pruned] verdicts carrying at least one fact. *)
  forced_cells : int;
  blocked_cells : int;
  dead_slots : int;
  m_lower_raised : int;  (** Instances with [m_lower] strictly above ⌈U⌉. *)
  window_cells : int;  (** Total (job, window-slot) cells of pruned instances. *)
  truncated : int;  (** Reports with a non-empty [skipped]: some pass did not run. *)
  analysis_time_s : float;
  nodes_bare : int;  (** CSP2 nodes without domains, over compared instances. *)
  nodes_pruned : int;  (** CSP2 nodes with domains, same instances. *)
  nodes_compared : int;  (** Instances decided under both configurations. *)
}

val run : ?progress:(int -> unit) -> Config.t -> totals
(** Analyze every generated instance; on [Pruned] ones additionally race
    nothing — just run CSP2 twice sequentially (bare, then with domains)
    under the configured per-run budget and accumulate node counts for the
    pairs where both runs decided. *)

val render : totals -> string
