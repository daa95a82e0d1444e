(** Static schedulability analysis — the solver-free pre-pass.

    The paper prunes unsolvable instances only with the trivial [r > 1]
    utilization filter (Section VII) before paying full CSP search.  This
    module is the single pre-filter entry point of the library: it examines
    a task set and a processor count {e before any search} and returns

    - [Infeasible certificate] — a machine-checkable, pretty-printable
      chain of interval/slot demand arguments ({!Certificate.validate}
      re-verifies it independently);
    - [Trivially_feasible schedule] — a witness found statically (a
      partitioned first-fit with per-processor EDF packing succeeded);
    - [Pruned domains] — per-slot forced tasks, blocked cells, dead slots
      and a lower bound on any feasible [m] ({!Domains}), ready to seed
      every backend's search.

    The passes, in increasing cost order:

    + exact utilization test [Σ C_i·T/T_i > m·T] (the paper's [r > 1]);
    + laxity-zero forced execution: a job whose usable window slots number
      exactly [C] must run in all of them; a slot with more than [m]
      forced tasks is an immediate contradiction;
    + a fixpoint loop: a slot saturated by [m] forced tasks is removed
      from every other window, which can force or starve further jobs,
      until stable;
    + per-slot supply vs demand over the hyperperiod
      ([Σ_t min(m, available) < Σ C_i·T/T_i]);
    + interval demand-bound tests: for window-aligned cyclic intervals
      [[t1, t2)], the demand jobs are forced to place inside
      ([Σ max(0, C − usable slots outside)]) vs the supply [m·(t2−t1)].

    Window-based passes cost [O(n·T + Σ T/T_i·D_i)].  The interval tests
    are one sweep per release instant over the usable window cells,
    [O(starts × (cells + T))] in all; it is run once on the pristine
    windows (the [m] lower bound) and, when saturation blocked cells, once
    more on the post-fixpoint windows.  Every pass is priced whole before
    it builds anything: one whose cost exceeds the remaining [work_budget]
    is skipped and {e reported} in {!report.skipped} — never silently
    dropped or cut off midway.

    Identical platforms and constrained-deadline task sets only: reduce
    arbitrary deadlines with {!Rt_model.Clone} first (as {!Core.solve}
    does transparently). *)

module Domains = Domains
module Certificate = Certificate

type verdict =
  | Infeasible of Certificate.t
  | Trivially_feasible of Rt_model.Schedule.t
  | Pruned of Domains.t

type report = {
  verdict : verdict;
  m_lower : int;
      (** Lower bound on any feasible processor count, from m-independent
          arguments only (also stored in [Pruned] domains). *)
  skipped : string list;
      (** Passes not run, with the reason — e.g. a work-budget overrun on a
          Table IV-sized instance.  Empty means the analysis was complete. *)
  time_s : float;
}

val default_work_budget : int
(** [10^7] elementary window operations — the cost class of the former
    silent [slot_capacity_shortfall] guard, now reported when hit. *)

val analyze :
  ?work_budget:int -> ?wall:Prelude.Timer.budget -> Rt_model.Taskset.t -> m:int -> report
(** Run all passes.  [wall] (default {!Prelude.Timer.unlimited}) is polled
    at every budget checkpoint: once the wall clock runs out or the budget
    is cancelled, remaining passes are skipped and reported — so a caller
    running the analyzer on a deadline ({!Core.run} passes its budget)
    never loses more than one checkpoint interval past its limit.
    @raise Invalid_argument on non-constrained-deadline task sets or
    [m < 1]. *)

val m_lower_bound : ?work_budget:int -> Rt_model.Taskset.t -> int
(** Smallest processor count not excluded by the m-independent arguments
    (utilization, laxity-zero slot counts, supply and interval bounds):
    the starting point for {!Core.min_processors}' scan.  At least
    [⌈U⌉]; [n + 1] when the set is provably infeasible on any number of
    processors.
    @raise Invalid_argument on non-constrained-deadline task sets. *)

val interval_sweep :
  Rt_model.Windows.t -> usable:(int -> int -> bool) -> m:int -> int * (int * int * int) option
(** [interval_sweep windows ~usable ~m] runs the interval demand-bound
    sweep alone, without a budget, over the window cells [(task, slot)]
    for which [usable task slot] holds.  A job's forced demand in an
    interval is [max 0 (C − usable slots outside it)].  Returns the max
    [⌈demand/len⌉] over the candidate intervals (at least 1) and the first
    [(start, len, demand)] — lowest start, then lowest end — whose demand
    exceeds [m·len].  Candidates are the cyclic [[start, start+len)],
    [0 < len < T], from a release instant to an absolute deadline. *)

val utilization_exceeds : Rt_model.Taskset.t -> m:int -> bool
(** The paper's [r > 1] filter, computed exactly: no float rounding, and
    no wrap-around when [m·T] does not fit an [int] (the answer is then
    [false]).  The one copy shared by {!analyze}, the experiment tables'
    filter column and serve's front door. *)
