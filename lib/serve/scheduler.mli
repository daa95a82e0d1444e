(** The serve daemon's request scheduler: a bounded admission queue feeding
    a pool of worker domains, each solving one request at a time under its
    own supervision scope, budget and telemetry, with a shared verdict
    cache (see DESIGN.md §11).

    Sharding: with [Prelude.Parallel.recommended_jobs ()] cores available,
    the pool runs [workers] concurrent requests and hands each request
    [jobs_per_request] domains of intra-solve parallelism (portfolio
    races, csp2-opt subtree splitting), so concurrent tenants split the machine instead of each
    grabbing all of it.

    Admission control: {!handle_line} rejects a solve request outright
    (code 6) when the queue already holds [queue_capacity] requests — the
    client sees the rejection immediately instead of its request sitting
    behind an unbounded backlog.  Per-request wall budgets are clamped to
    [max_wall_s], so one tenant cannot monopolize a worker.

    Containment: each request runs inside
    {!Resilience.Supervise.protect}[ ~name:("request:" ^ id)] — a solver
    crash (or an armed ["serve.request"] failpoint) becomes a code-5
    response for that request and the daemon keeps serving.  The
    [mgrts serve] I/O loop and the tests drive this module the same way:
    feed lines to {!handle_line}, collect responses from the [emit]
    callback. *)

type config = {
  workers : int;  (** Concurrent requests in flight. *)
  jobs_per_request : int;  (** Domains each solve may use ({!Core.run}'s [jobs]). *)
  queue_capacity : int;  (** Admission bound; beyond it, code 6. *)
  default_wall_s : float;  (** Wall budget when the request names none. *)
  max_wall_s : float;  (** Hard per-request clamp, tenant-proof. *)
  default_nodes : int option;  (** Node budget when the request names none. *)
  default_solver : Core.solver;
  cache_capacity : int;  (** Verdict cache entries before LRU eviction. *)
  stall_beats : float;  (** Portfolio stall-watchdog window; <= 0 off. *)
}

val default_config : unit -> config
(** Shards [Prelude.Parallel.recommended_jobs ()] into
    [workers * jobs_per_request]; 5 s default / 30 s max wall budget,
    queue capacity 64, cache capacity 512. *)

type t

val create : ?config:config -> emit:(string -> unit) -> unit -> t
(** Start the worker pool.  [emit] receives every output line (responses
    and stats events), without trailing newline; it is called from worker
    domains and from {!handle_line}'s caller, so it must be thread-safe —
    the serve loop passes a mutex-guarded stdout writer, tests a
    mutex-guarded collector. *)

val handle_line : t -> fallback_id:string -> string -> [ `Continue | `Shutdown ]
(** Parse one NDJSON request line and act on it: enqueue a solve (or emit
    the code-6 rejection when the queue is full), emit the stats event,
    emit the code-3 error for a malformed line, or return [`Shutdown] for
    a shutdown command.  Never raises. *)

val process : t -> queue_s:float -> Proto.solve_request -> Proto.response
(** The per-request pipeline a worker runs: front-door exact-utilization
    check, cache lookup (with relabeling and verify-on-hit), budgeted
    solve, cache store.  Exposed so tests can drive single requests
    synchronously; [handle_line] is the concurrent entry point. *)

val counters : t -> Proto.counters
(** Live snapshot.  [received] counts solve attempts (including rejected)
    plus malformed lines; [served] counts worker-produced solve responses
    (decided + undecided + solver-side errors + crashed); [errors] counts
    code-3/4 responses, malformed lines answered inline included;
    [crashed] counts contained code-5 responses. *)

val emit_stats : t -> unit
(** Emit one [{"event": "stats", ...}] line through the [emit] callback. *)

val shutdown : t -> unit
(** Stop admitting, let the workers drain every queued request, join
    them.  Idempotent.  [handle_line] after shutdown rejects solves. *)
