(** MGRTS — Global Multiprocessor Real-Time Scheduling as a CSP.

    One-stop facade over the library: pick a solver path, hand it a task
    set and a processor count, get a verified verdict back.  The underlying
    pieces remain available for fine-grained control:

    - {!Rt_model}: tasks, platforms, windows, schedules, verification;
    - {!Fd}: the generic finite-domain solver (CSP1/CSP2 encodings);
    - {!Sat}: the CDCL solver behind the CSP1→CNF path;
    - {!Csp2}: the paper's dedicated chronological solver;
    - {!Sched}, {!Localsearch}, {!Priority}: baselines and future-work
      extensions;
    - {!Gen}: the random instance generator of Section VII-A.

    {2 Quickstart}

    {[
      let ts = Rt_model.Examples.running_example in
      match Core.solve ts ~m:2 with
      | Core.Feasible schedule, _ ->
        Format.printf "%a@." Rt_model.Schedule.pp schedule
      | _ -> print_endline "no schedule"
    ]} *)

type solver =
  | Csp1_generic  (** Boolean encoding on the generic FD solver (Section IV). *)
  | Csp1_sat  (** Boolean encoding compiled to CNF (Section IV's SAT remark). *)
  | Csp2_generic  (** Multi-valued encoding on the generic solver (ablation). *)
  | Csp2_dedicated of Csp2.Heuristic.t
      (** The paper's hand-written chronological search (Section V). *)
  | Csp2_opt of Csp2.Heuristic.t
      (** {!Csp2.Opt}: the dedicated search with packed eligibility
          bitsets, state-dominance memoization and the aggregate capacity
          bound — sequential unless {!run} gets [jobs > 1], which splits
          subtrees across domains.  Falls back to {!Csp2.Het} on
          heterogeneous platforms, like [Csp2_dedicated]. *)
  | Local_search  (** Min-conflicts (future work #1); cannot prove infeasibility. *)
  | Portfolio
      (** Race the {!Portfolio.default_specs} backends on {!run}'s [jobs]
          domains; first decisive verdict wins, losers are cancelled. *)

val default_solver : solver
(** [Csp2_dedicated DC] — the paper's overall winner. *)

val solver_name : solver -> string

val solver_of_string : string -> solver option
(** Inverse of {!solver_name}'s CLI spellings (case-insensitive): [csp1],
    [csp1-sat]/[sat], [csp2-generic], [csp2], [csp2+rm/dm/tc/dc],
    [csp2-opt]/[opt] (also [+rm/dm/tc/dc]), [local]/[local-search],
    [portfolio].  [solver_of_string (solver_name s) = Some s] for every
    solver.  Shared by the CLI converter and the serve protocol so the
    two front ends accept the same names. *)

val all_solvers : solver list
(** One of each family (D−C heuristic for the dedicated paths). *)

type verdict = Encodings.Outcome.t =
  | Feasible of Rt_model.Schedule.t
  | Infeasible
  | Limit
  | Memout of string

val run :
  ?solver:solver ->
  ?platform:Rt_model.Platform.t ->
  ?budget:Prelude.Timer.budget ->
  ?seed:int ->
  ?verify:bool ->
  ?analyze:bool ->
  ?jobs:int ->
  ?memo_mb:int ->
  ?nogoods:bool ->
  ?split_depth:int ->
  ?stall_beats:float ->
  Rt_model.Taskset.t ->
  m:int ->
  Portfolio.result
(** The solve pipeline every entry point goes through: clone transform
    for arbitrary deadlines, static pass, engine, schedule verification,
    map back, verification of the mapped schedule.  Returns the verdict,
    the wall-clock seconds of the whole pipeline, the winner and one
    {!Portfolio.backend_stats} per engine or arm that ran — the
    {!Portfolio.analysis_arm_name} entry first whenever the static pass
    ran, then the engine's (a single entry, or every arm of the race).
    The winner is the entry whose verdict was decisive, [None] when
    nothing decided.  {!Portfolio.summary} renders the result as one
    line.

    [solver], [platform], [budget], [seed], [verify] and [analyze] behave
    as documented at {!solve}.  The engine settings: [jobs] is the domain
    count of the [Portfolio] race (default
    {!Prelude.Parallel.recommended_jobs}) and, above 1, turns [Csp2_opt]
    into {!Csp2.Opt.solve_parallel} with [split_depth]; [memo_mb] and
    [nogoods] tune [Csp2_opt] ({!Csp2.Opt.solve}); [stall_beats] the
    race's stall watchdog ({!Portfolio.solve}).  Settings a solver does
    not use are ignored. *)

val solve :
  ?solver:solver ->
  ?platform:Rt_model.Platform.t ->
  ?budget:Prelude.Timer.budget ->
  ?seed:int ->
  ?verify:bool ->
  ?analyze:bool ->
  Rt_model.Taskset.t ->
  m:int ->
  verdict * float
(** Decide feasibility; returns the verdict and the wall-clock seconds
    spent — {!run} projected to [(verdict, time_s)].  [verify] (default
    true) re-checks any produced schedule against {!Rt_model.Verify} and
    raises [Failure] on a solver bug — schedules you receive are
    guaranteed feasible.

    [analyze] (default true) runs the {!Analysis} static pass first on
    identical platforms: a certified refutation or a statically built
    schedule returns without any search (so even [Local_search] can report
    [Infeasible] through this path), and otherwise the pruned domains are
    fed to the chosen backend — every arm of the race, for [Portfolio].
    The pass is the same for every solver: it runs once, on [budget],
    inside {!Resilience.Supervise.protect}; a crash is listed as a
    [Crashed] {!Portfolio.analysis_arm_name} entry and the engine then
    searches without pruned domains.  [analyze:false] restores the bare
    backend.

    Arbitrary-deadline task sets are transparently reduced with the clone
    transform (Section VI-B); the returned schedule then spans the clone
    hyperperiod and refers to the original task ids — the static pass runs
    on the clone system, and with [verify] both the clone-level schedule
    {e and} the mapped-back schedule are checked (the latter against the
    original task set via {!Rt_model.Verify.check_cyclic}).  Heterogeneous platforms are supported by
    [Csp1_generic], [Csp2_generic] and the dedicated path (which switches
    to {!Csp2.Het}); [Csp1_sat] and [Local_search] raise
    [Invalid_argument] for them. *)

val dispatch :
  solver ->
  platform:Rt_model.Platform.t ->
  budget:Prelude.Timer.budget ->
  seed:int ->
  ?domains:Analysis.Domains.t ->
  Rt_model.Taskset.t ->
  m:int ->
  verdict
(** The bare backend dispatch used by {!run}: no static pass, no clone
    transform, no schedule verification — constrained-deadline task sets
    only.  Exposed for callers (and tests) that need to pin the exact
    backend behavior.  [seed] only feeds the randomized backends; the
    dedicated CSP2 searches are deterministic and ignore it.
    @raise Invalid_argument when the platform is heterogeneous and the
    solver cannot honor the arguments: [Csp1_sat]/[Local_search]/
    [Portfolio] require identical platforms outright, and
    [Csp2_dedicated]/[Csp2_opt] fall back to {!Csp2.Het}, which rejects
    [domains] — pruned domains are derived assuming identical unit-speed
    processors and would be unsound on any other machine. *)

val analyze :
  ?work_budget:int -> Rt_model.Taskset.t -> m:int -> Analysis.report * Rt_model.Taskset.t
(** The static pass alone, without any search.  Returns the report and the
    task set it refers to: the input itself when its deadlines are
    constrained, the clone system (Section VI-B) otherwise — certificates
    and domains in the report name {e that} system's task ids and
    hyperperiod.  [work_budget] as in {!Analysis.analyze}. *)

type min_processors_outcome = Rt_model.Minproc.min_processors_outcome =
  | Exact of int  (** True minimum: every smaller [m] was refuted. *)
  | Inconclusive of { first_limit : int; feasible : int option }
      (** A budgeted run was undecided at [first_limit] before the search
          could prove a minimum; [feasible], when present, is only an upper
          bound. *)
  | All_infeasible  (** Refuted for every [m <= max_m]. *)

val min_processors :
  ?solver:solver -> ?budget_per_m:Prelude.Timer.budget option -> ?max_m:int ->
  ?analyze:bool -> Rt_model.Taskset.t -> min_processors_outcome
(** Smallest [m] for which a schedule is found, starting from [⌈U⌉]
    (Section VII-E's closing suggestion) sharpened to the static analyzer's
    {!Analysis.m_lower_bound} unless [analyze:false], scanning up to
    [max_m] (default [n]).  With [budget_per_m], a [Limit]/[Memout]
    verdict at some [m] no longer masquerades as infeasibility: the result
    degrades to {!Inconclusive} carrying the smallest undecided [m]. *)

(** {1 Typed top-level errors}

    Bad input and resource exhaustion surface from the solver layers as a
    small set of exceptions: [Invalid_argument] for malformed task sets
    and parameters, {!Prelude.Intmath.Overflow} (or an [Invalid_argument]
    mentioning overflow, from [Taskset.of_tasks]) for hyperperiods that
    do not fit a native [int], and {!Portfolio.All_arms_crashed} when
    containment ran out of arms.  {!error_of_exn} classifies them into a
    typed error a CLI or service can render — [mgrts] maps them to
    distinct nonzero exit codes ({!error_exit_code}).  Exceptions outside
    the classification (solver soundness bugs reported as [Failure],
    [Out_of_memory] on the unsupervised sequential paths) are left to
    the caller. *)

type error =
  | Invalid_input of string  (** Malformed task set or invalid parameter. *)
  | Overflow of string  (** Hyperperiod (or other exact arithmetic) overflow. *)
  | All_arms_crashed of (string * string) list
      (** Every portfolio arm crashed ([(arm, exception text)] pairs). *)

val error_of_exn : exn -> error option
(** The classifier: [Some error] for the exceptions above, [None] for
    any other.  The CLI wraps every subcommand in it, the serve daemon
    every request.  [Sys_error] — a missing or unreadable input file — is
    classified as [Invalid_input]: file I/O problems are the caller's bad
    input, not a solver failure. *)

val error_message : error -> string
(** One human line, no trailing newline. *)

val error_exit_code : error -> int
(** Stable nonzero exit codes: 3 invalid input, 4 overflow, 5 all arms
    crashed.  (The CLI reserves 0 for decided, 2 for undecided runs.) *)
