(** Deterministic failpoint injection for fault-tolerance testing.

    A {e failpoint} is a named site in solver code ([Failpoint.hit
    "csp2opt.memo_grow"]) that normally does nothing but can be {e armed}
    to raise an exception or inject a delay — deterministically, so a test
    or a CI job can crash exactly one portfolio arm and assert that the
    race survives.  Sites are armed programmatically ({!arm}) or from the
    [MGRTS_FAILPOINTS] environment variable at program start.

    {b Overhead when disarmed} (the default): {!hit} is one [bool
    Atomic.t] load and a return — the same discipline as the telemetry
    layer, guarded by the same Bechamel micro-bench.

    {b Scoping}: an armed failpoint only ever fires inside a supervision
    scope ({!with_scope}, entered by {!Supervise.protect}).  Code that
    runs outside any containment wrapper — direct backend calls in unit
    tests, the sequential [Core.solve] paths — is never perturbed, which
    is what lets the whole test suite run under an injection matrix.

    {b Environment grammar}:
    [MGRTS_FAILPOINTS="site=raise:Out_of_memory@3,other=delay:50ms"] —
    a comma-separated list of [site=action] entries where [action] is
    [raise:Out_of_memory], [raise:Stack_overflow], [raise:Failure] (or
    [raise:Failure:msg]) or [delay:<duration>] ([50ms], [0.5s] or plain
    seconds), optionally followed by a trigger suffix: [@N] fires once on
    the [N]-th in-scope hit (1-based), [@N+] on every hit from the [N]-th
    on, and no suffix on every hit.  A malformed entry is reported on
    stderr and skipped — injection must never crash the process by
    itself. *)

type exn_kind = Out_of_memory | Stack_overflow | Failure_msg of string

type action =
  | Raise of exn_kind
  | Delay of float  (** seconds *)

type trigger =
  | Always
  | Nth of int  (** fire exactly once, on the [N]-th in-scope hit (1-based) *)
  | From of int  (** fire on every in-scope hit from the [N]-th on *)

val catalogue : string list
(** Every site compiled into the fleet, one per instrumented checkpoint:
    [portfolio.arm_start], [core.static_pass], [csp2.node],
    [csp2opt.node], [csp2opt.memo_grow], [csp2opt.steal], [sat.propagate],
    [localsearch.restart], [localsearch.iter], [serve.request]. *)

val hit : string -> unit
(** The instrumentation point.  Disarmed: one atomic load.  Armed: if the
    calling domain is inside a supervision scope and the site's trigger
    matches, performs the action (raises, or sleeps for a delay) after
    recording a [failpoint:<site>] telemetry instant. *)

val with_scope : (unit -> 'a) -> 'a
(** Run [f] with injection enabled for the calling domain (restored on
    exit, exceptions included).  {!Supervise.protect} wraps its thunk in
    this — user code rarely needs it directly. *)

val in_scope : unit -> bool
(** Whether the calling domain is inside a supervision scope. *)

val arm : ?trigger:trigger -> string -> action -> unit
(** Arm [site] (replacing any previous arming of the same site).  The
    site name is not validated — tests may arm ad-hoc sites — use
    {!arm_spec} for validated user input.  [trigger] defaults to
    [Always]. *)

val disarm : string -> unit
(** Remove any arming of [site]; no-op when not armed. *)

val reset : unit -> unit
(** Disarm every site, including those armed from the environment.  Test
    suites that own their injection state call this first. *)

val arm_spec : string -> unit
(** Parse a [MGRTS_FAILPOINTS]-grammar spec and arm each entry, validating
    site names against {!catalogue}.
    @raise Invalid_argument on a malformed entry or unknown site. *)

val armed : unit -> bool
(** Whether any site is currently armed (one atomic load). *)

val hits : string -> int
(** In-scope hits of [site] since it was (last) armed; 0 when unarmed.
    Only armed sites count — the disarmed fast path keeps no counters. *)
