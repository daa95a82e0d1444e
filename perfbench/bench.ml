(* The repo benchmark: one workload, one seed, a fixed measuring window.

     bench.exe --workload table1|long-horizon|serve-mix --seed N --seconds S --trace 0|1

   Untraced ([--trace 0]) runs time the default user path end to end:
   [Core.solve] with defaults on the batch workloads, one
   [Serve.Scheduler] with default config fed through [handle_line] on
   serve-mix.  Traced runs ([--trace 1]) give the per-layer split: the
   benchmark replays the pipeline itself through each layer's public
   functions ([Analysis.analyze], the default engine, [Verify.check],
   [Fingerprint], [Cache], [Proto]) and times every call from outside.
   No span inside the program is added or enabled.

   Every verdict is checked outside the timed region: feasible schedules
   with [Verify.check]; infeasible verdicts against a different engine
   run without the static pass.  The last stdout line is the result
   object [{"correct", "attempted", "failed", "metrics"}]. *)

open Rt_model
open Perfbench
module W = Workload
module Proto = Serve.Proto
module Json = Serve.Json

let now = Prelude.Timer.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = 1000. *. s
let us s = 1e6 *. s

(* Set-up is repeated this many times before each pass, and the fastest
   of all of a run's set-ups is reported. *)
let setup_repeats = 2

(* Wall cap on the infeasibility oracle per run, and per instance. *)
let oracle_cap_s = 4.
let oracle_budget_s = 1.

let kind_of = function
  | Core.Feasible _ -> "feasible"
  | Core.Infeasible -> "infeasible"
  | Core.Limit -> "limit"
  | Core.Memout _ -> "memout"

let decided = function Core.Feasible _ | Core.Infeasible -> true | Core.Limit | Core.Memout _ -> false

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

let peak_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words

(* ------------------------------------------------------------------ *)
(* Output. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then begin
        prerr_endline ("perfbench: metric " ^ m.name ^ " is not finite");
        exit 3
      end)
    metrics;
  List.iter (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_float m.value)
             m.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_info fields =
  Printf.printf "{\"info\": {%s}}\n%!"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields))

(* A fixed integer loop timed in this process.  When it slows down the
   host slowed down, not the program: on a shared 2-core box it has been
   seen to take 1.8x longer for minutes at a time. *)
let host_ref_ms () =
  let loop () =
    let acc = ref 0 in
    for i = 1 to 10_000_000 do
      acc := !acc + (i land 7)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  ms (Stats.median (Array.init 5 (fun _ -> snd (timed loop))))

(* Host reference before and after the measured region. *)
type host = { before_ms : float; mutable after_ms : float }

let host_start () = { before_ms = host_ref_ms (); after_ms = Float.nan }
let host_stop h = h.after_ms <- host_ref_ms ()

let host_info h =
  [ ("host_ref_before_ms", json_float h.before_ms); ("host_ref_after_ms", json_float h.after_ms) ]

let host_metric h = metric "host.ref_loop_ms" "ms" ((h.before_ms +. h.after_ms) /. 2.)

(* ------------------------------------------------------------------ *)
(* Correctness oracle. *)

(* An engine other than the default, run with the static pass off. *)
let oracle_solver =
  match Core.default_solver with
  | Core.Csp2_opt _ -> Core.Csp2_dedicated Csp2.Heuristic.DC
  | _ -> Core.Csp2_opt Csp2.Heuristic.DC

type oracle = {
  mutable wrong : int;
  mutable infeasible : int;  (** Infeasible verdicts seen. *)
  mutable confirmed : int;  (** ... of which the oracle engine refuted too. *)
  mutable feasible_checked : int;
  mutable spent_s : float;
}

let oracle () = { wrong = 0; infeasible = 0; confirmed = 0; feasible_checked = 0; spent_s = 0. }

let check_feasible o ts sched =
  o.feasible_checked <- o.feasible_checked + 1;
  match Verify.check ts sched with
  | Ok () -> ()
  | Error _ | (exception Invalid_argument _) -> o.wrong <- o.wrong + 1

(* Compare an [Infeasible] against the oracle engine while the per-run cap
   lasts; past it the verdict counts as seen but unchecked. *)
let check_infeasible o ts ~m =
  o.infeasible <- o.infeasible + 1;
  if o.spent_s < oracle_cap_s then begin
    let budget = Prelude.Timer.budget ~wall_s:oracle_budget_s () in
    let v, dt = timed (fun () -> fst (Core.solve ~solver:oracle_solver ~analyze:false ~budget ts ~m)) in
    o.spent_s <- o.spent_s +. dt;
    match v with
    | Core.Infeasible -> o.confirmed <- o.confirmed + 1
    | Core.Feasible _ -> o.wrong <- o.wrong + 1
    | Core.Limit | Core.Memout _ -> ()
  end

let oracle_metrics o =
  [
    metric "oracle.wrong_verdicts" "count" (float_of_int o.wrong);
    metric "oracle.infeasible_checked_pct" "%" (Stats.pct_int o.confirmed o.infeasible);
  ]

let oracle_info o =
  [
    ("wrong_verdicts", string_of_int o.wrong);
    ("feasible_rechecked", string_of_int o.feasible_checked);
    ("infeasible_verdicts", string_of_int o.infeasible);
    ("infeasible_confirmed", string_of_int o.confirmed);
    ("oracle_engine", Printf.sprintf "\"%s\"" (Core.solver_name oracle_solver));
    ("oracle_s", json_float o.spent_s);
  ]

(* ------------------------------------------------------------------ *)
(* The traced replica of [Core.solve]'s default pipeline on a
   constrained-deadline task set and identical platform: static pass,
   default engine on the pruned domains, schedule verification. *)

type layers = {
  mutable solves : int;
  mutable replica_s : float;  (** Whole replica calls. *)
  mutable untraced_s : float;  (** The same inputs through the untraced path. *)
  mutable unattributed_s : float;
      (** Per input, untraced time minus the replica's timed layer calls, summed. *)
  mutable analysis_s : float;
  mutable truncated : int;
  mutable analysis_decided : int;
  mutable search_s : float;
  mutable nodes : int;
  mutable limit : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable nogood_hits : int;
  mutable nogood_misses : int;
  mutable windows_s : float;
  mutable verify_s : float;
  mutable mismatches : int;
  mutable budget_edge : int;
}

let layers () =
  {
    solves = 0;
    replica_s = 0.;
    untraced_s = 0.;
    unattributed_s = 0.;
    analysis_s = 0.;
    truncated = 0;
    analysis_decided = 0;
    search_s = 0.;
    nodes = 0;
    limit = 0;
    memo_hits = 0;
    memo_misses = 0;
    nogood_hits = 0;
    nogood_misses = 0;
    windows_s = 0.;
    verify_s = 0.;
    mismatches = 0;
    budget_edge = 0;
  }

(* The default engine, called the way [Core.dispatch] calls it, but
   keeping the counters [dispatch] drops. *)
let engine l ~budget ~domains ts ~m =
  match Core.default_solver with
  | Core.Csp2_dedicated heuristic ->
    let v, st = Csp2.Solver.solve ~heuristic ~budget ~domains ts ~m in
    l.nodes <- l.nodes + st.Csp2.Solver.nodes;
    v
  | Core.Csp2_opt heuristic ->
    let v, st = Csp2.Opt.solve ~heuristic ~budget ~domains ts ~m in
    l.nodes <- l.nodes + st.Csp2.Opt.nodes;
    l.memo_hits <- l.memo_hits + st.Csp2.Opt.memo_hits;
    l.memo_misses <- l.memo_misses + st.Csp2.Opt.memo_misses;
    l.nogood_hits <- l.nogood_hits + st.Csp2.Opt.nogood_hits;
    l.nogood_misses <- l.nogood_misses + st.Csp2.Opt.nogood_misses;
    v
  | solver -> Core.dispatch solver ~platform:(Platform.identical ~m) ~budget ~seed:0 ~domains ts ~m

(* Returns the verdict, the replica's time and the part of it the timed
   layer calls (analysis, search, verification) cover. *)
let replica_solve l ~wall_s ts ~m =
  if not (Taskset.is_constrained ts) then invalid_arg "perfbench: replica needs constrained deadlines";
  (* The model layer's window build, timed standalone: the static pass
     pays it on every instance it does not refute by utilization. *)
  let (), tw = timed (fun () -> ignore (Windows.build ts)) in
  l.windows_s <- l.windows_s +. tw;
  let covered = ref 0. in
  let verify sched =
    let r, tv = timed (fun () -> Verify.check ts sched) in
    l.verify_s <- l.verify_s +. tv;
    covered := !covered +. tv;
    if Result.is_error r then failwith "perfbench: replica produced an invalid schedule"
  in
  let run () =
    let budget = Prelude.Timer.budget ~wall_s () in
    let report, ta = timed (fun () -> Analysis.analyze ~wall:budget ts ~m) in
    l.analysis_s <- l.analysis_s +. ta;
    covered := !covered +. ta;
    if report.Analysis.skipped <> [] then l.truncated <- l.truncated + 1;
    match report.Analysis.verdict with
    | Analysis.Infeasible _ ->
      l.analysis_decided <- l.analysis_decided + 1;
      Core.Infeasible
    | Analysis.Trivially_feasible sched ->
      l.analysis_decided <- l.analysis_decided + 1;
      verify sched;
      Core.Feasible sched
    | Analysis.Pruned domains ->
      let v, tsearch = timed (fun () -> engine l ~budget ~domains ts ~m) in
      l.search_s <- l.search_s +. tsearch;
      covered := !covered +. tsearch;
      (match v with
      | Core.Feasible sched -> verify sched
      | Core.Limit -> l.limit <- l.limit + 1
      | Core.Infeasible | Core.Memout _ -> ());
      v
  in
  let v, dt = timed run in
  l.solves <- l.solves + 1;
  l.replica_s <- l.replica_s +. dt;
  (v, dt, !covered)

(* One input's untraced end-to-end time against the layer calls that
   cover its replica: what the layers do not explain. *)
let attribute l ~untraced ~covered =
  l.untraced_s <- l.untraced_s +. untraced;
  l.unattributed_s <- l.unattributed_s +. Float.max 0. (untraced -. covered)

(* Verdict kinds, with the seconds each side took.  One side deciding
   late in the wall budget and the other running out of it is the clock
   landing either way, not a different pipeline: counted apart. *)
let compare_verdicts l (ka, ta) (kb, tb) =
  if ka <> kb then begin
    let undecided k = k = "limit" || k = "memout" and late t = t >= 0.75 *. W.budget_s in
    if (undecided ka && late tb) || (undecided kb && late ta) then l.budget_edge <- l.budget_edge + 1
    else l.mismatches <- l.mismatches + 1
  end

let per_solve_ms l total = if l.solves = 0 then 0. else ms total /. float_of_int l.solves

(* Shares are of [total], the traced end-to-end time; the unattributed
   share and the trace overhead are against the same inputs' untraced
   end-to-end time. *)
let layer_metrics l ~total =
  [
    metric "analysis.ms" "ms" (per_solve_ms l l.analysis_s);
    metric "analysis.share_pct" "%" (Stats.pct l.analysis_s total);
    metric "analysis.truncated" "count" (float_of_int l.truncated);
    metric "analysis.decided" "count" (float_of_int l.analysis_decided);
    metric "search.ms" "ms" (per_solve_ms l l.search_s);
    metric "search.share_pct" "%" (Stats.pct l.search_s total);
    metric "search.nodes" "count" (float_of_int l.nodes);
    metric "search.limit" "count" (float_of_int l.limit);
    metric "search.memo_hit_pct" "%" (Stats.pct_int l.memo_hits (l.memo_hits + l.memo_misses));
    metric "search.nogood_hit_pct" "%"
      (Stats.pct_int l.nogood_hits (l.nogood_hits + l.nogood_misses));
    metric "model.windows_build_ms" "ms" (per_solve_ms l l.windows_s);
    metric "model.verify_ms" "ms" (per_solve_ms l l.verify_s);
    metric "core.solves" "count" (float_of_int l.solves);
    metric "core.unattributed_pct" "%" (Stats.pct l.unattributed_s l.untraced_s);
    metric "trace.overhead_pct" "%" (Stats.pct (total -. l.untraced_s) l.untraced_s);
    metric "trace.mismatches" "count" (float_of_int l.mismatches);
    metric "trace.budget_edge" "count" (float_of_int l.budget_edge);
  ]

(* ------------------------------------------------------------------ *)
(* The serve layer: timings of the traced request replica, and what the
   scheduler's own responses report (queue wait, solve time, outcome). *)

type serve_obs = {
  mutable replayed : int;
  mutable request_s : float;  (** Whole replica requests. *)
  mutable parse_s : float;
  mutable fingerprint_s : float;
  mutable fingerprints : int;
  mutable hits : int;
  mutable hit_s : float;
  mutable feasible_hits : int;
  mutable verify_on_hit_s : float;
  mutable render_s : float;
  mutable queue_waits : float array;
  mutable solve_times : float array;
  mutable cached : int;
  mutable front_door : int;
  mutable rejected : int;
  mutable crashed : int;
}

let serve_obs () =
  {
    replayed = 0;
    request_s = 0.;
    parse_s = 0.;
    fingerprint_s = 0.;
    fingerprints = 0;
    hits = 0;
    hit_s = 0.;
    feasible_hits = 0;
    verify_on_hit_s = 0.;
    render_s = 0.;
    queue_waits = [||];
    solve_times = [||];
    cached = 0;
    front_door = 0;
    rejected = 0;
    crashed = 0;
  }

let per n total = if n = 0 then 0. else total /. float_of_int n

(* Percentile of possibly no samples: 0 when there are none. *)
let pct_or_zero ~pct xs = if Array.length xs = 0 then 0. else Stats.percentile ~pct xs

let serve_metrics s ~requests =
  [
    metric "serve.parse_us" "us" (us (per s.replayed s.parse_s));
    metric "serve.fingerprint_us" "us" (us (per s.fingerprints s.fingerprint_s));
    metric "serve.hit_ms" "ms" (ms (per s.hits s.hit_s));
    metric "serve.verify_on_hit_ms" "ms" (ms (per s.feasible_hits s.verify_on_hit_s));
    metric "serve.render_us" "us" (us (per s.replayed s.render_s));
    metric "serve.cache_hit_pct" "%" (Stats.pct_int s.cached requests);
    metric "serve.front_door_pct" "%" (Stats.pct_int s.front_door requests);
    metric "serve.queue_wait_p50_ms" "ms" (ms (pct_or_zero ~pct:50 s.queue_waits));
    metric "serve.queue_wait_p95_ms" "ms" (ms (pct_or_zero ~pct:95 s.queue_waits));
    metric "serve.solve_ms" "ms" (ms (if Array.length s.solve_times = 0 then 0. else Stats.mean s.solve_times));
    metric "serve.rejected" "count" (float_of_int s.rejected);
    metric "serve.crashed" "count" (float_of_int s.crashed);
  ]

(* ------------------------------------------------------------------ *)
(* Set-up: repeated before every pass, so that a run's set-ups sample its
   whole window, and the fastest is reported.  The host runs at one of two
   speeds about 1.9x apart, switching within a second: the median of a
   run's set-ups followed the share of slow time in that run (quartile
   spread 0.35-0.41 over ten batch runs); the fastest follows it less. *)

let repeated_setup times f =
  let results = List.init setup_repeats (fun _ -> timed f) in
  times := List.map snd results @ !times;
  fst (List.nth results (setup_repeats - 1))

let fastest times = List.fold_left Float.min Float.infinity !times

(* Set-up warms up on this many fixed instances, at the measured budget:
   none of them comes near it, so a set-up does the same work every time.
   (A 20 ms warm-up budget had made set-up time depend on whether the
   host let a warm-up finish before the budget cut it.) *)
let warmup_count = 2

(* Untraced runs solve the whole suite [W.passes] times.  Timings keep,
   per instance, its fastest pass: on a shared host the same instance can
   take twice as long while other work runs, best-of-N strips most of
   that, and every reported time is still a measured one.  Decided shares
   and errors count every pass.  Traced runs make one pass and solve every
   instance twice: the default path, then the replica. *)
let passes kind ~trace = if trace then 1 else W.passes kind

(* ------------------------------------------------------------------ *)
(* The serve layer: open-loop replays through a real scheduler, and the
   request replica. *)

module Scheduler = Serve.Scheduler
module Cache = Serve.Cache
module Fingerprint = Serve.Fingerprint

(* Response lines with their emit times, collected from worker domains. *)
type collector = { mu : Mutex.t; mutable lines : (float * string) list; count : int Atomic.t }

let collector () = { mu = Mutex.create (); lines = []; count = Atomic.make 0 }

let collect c line =
  let t = now () in
  Mutex.protect c.mu (fun () -> c.lines <- (t, line) :: c.lines);
  Atomic.incr c.count

let collected c = Mutex.protect c.mu (fun () -> List.rev c.lines)

let start_scheduler () =
  let c = collector () in
  let sched = Scheduler.create ~emit:(collect c) () in
  Array.iteri
    (fun i (ts, m) ->
      let id = Printf.sprintf "w%d" i in
      let line = W.request_line ~id ~wall_s:W.budget_s (W.tuples ts, m) in
      ignore (Scheduler.handle_line sched ~fallback_id:id line))
    (W.warmup_instances W.Serve_mix ~count:warmup_count);
  while Atomic.get c.count < warmup_count do
    Unix.sleepf 0.001
  done;
  (sched, c)

(* Replay one request through the serve layer's public functions in the
   order a scheduler worker calls them, timing each. *)
let replay_request s l cache (config : Scheduler.config) (req : W.request) =
  let t_start = now () in
  let (sreq, ts), tp =
    timed (fun () ->
        match Proto.parse_request ~fallback_id:req.W.id req.W.line with
        | Proto.Solve r -> (r, Taskset.of_tuples r.Proto.tuples)
        | Proto.Stats_request | Proto.Shutdown_request | Proto.Malformed _ ->
          failwith ("perfbench: stream line is not a solve request: " ^ req.W.id))
  in
  s.parse_s <- s.parse_s +. tp;
  let m = sreq.Proto.m in
  let solve_s = ref 0. and covered = ref tp in
  let verdict, cached, solver =
    if W.over_utilized ts ~m then (* the scheduler's front door *) (Core.Infeasible, false, Some "front-door")
    else begin
      let (fp, key), tf =
        timed (fun () ->
            let fp = Fingerprint.of_taskset ts ~m in
            (fp, Fingerprint.key fp))
      in
      s.fingerprint_s <- s.fingerprint_s +. tf;
      s.fingerprints <- s.fingerprints + 1;
      covered := !covered +. tf;
      let found, tfind = timed (fun () -> Cache.find cache ~key) in
      match found with
      | Some (Cache.Feasible_canonical canon) ->
        let sched, trel = timed (fun () -> Fingerprint.from_canonical fp canon) in
        let ok, tv = timed (fun () -> Verify.check_cyclic ts sched) in
        if Result.is_error ok then failwith "perfbench: cached schedule failed verify-on-hit";
        s.hits <- s.hits + 1;
        s.feasible_hits <- s.feasible_hits + 1;
        s.hit_s <- s.hit_s +. tfind +. trel +. tv;
        covered := !covered +. tfind +. trel +. tv;
        s.verify_on_hit_s <- s.verify_on_hit_s +. tv;
        (Core.Feasible sched, true, None)
      | Some Cache.Infeasible_entry ->
        s.hits <- s.hits + 1;
        s.hit_s <- s.hit_s +. tfind;
        covered := !covered +. tfind;
        (Core.Infeasible, true, None)
      | None ->
        let wall_s =
          Float.min config.Scheduler.max_wall_s
            (Option.value sreq.Proto.wall_s ~default:config.Scheduler.default_wall_s)
        in
        let v, dt, layer_s = replica_solve l ~wall_s ts ~m in
        solve_s := dt;
        covered := !covered +. layer_s;
        (match v with
        | Core.Feasible sched ->
          Cache.store cache ~key (Cache.Feasible_canonical (Fingerprint.to_canonical fp sched))
        | Core.Infeasible -> Cache.store cache ~key Cache.Infeasible_entry
        | Core.Limit | Core.Memout _ -> ());
        (v, false, Some (Core.solver_name Core.default_solver))
    end
  in
  let resp =
    {
      Proto.r_id = sreq.Proto.id;
      r_status = (if decided verdict then Proto.Decided else Proto.Undecided);
      r_code = (if decided verdict then 0 else 2);
      r_verdict = Some (kind_of verdict);
      r_cached = cached;
      r_solver = solver;
      r_winner = None;
      r_time_s = 0.;
      r_queue_s = 0.;
      r_stats = None;
      r_error = None;
      r_schedule =
        (match verdict with
        | Core.Feasible sched when sreq.Proto.want_schedule -> Some sched
        | _ -> None);
    }
  in
  let _, tr = timed (fun () -> Proto.response_json resp) in
  s.render_s <- s.render_s +. tr;
  s.replayed <- s.replayed + 1;
  s.request_s <- s.request_s +. (now () -. t_start);
  (verdict, !solve_s, !covered +. tr)

type reply = {
  at : float;
  code : int;
  verdict : string option;
  cached : bool;
  solver : string option;
  queue_s : float;
  time_s : float;
  schedule : Schedule.t option;
}

let parse_reply (at, line) =
  match Json.parse line with
  | Error e -> failwith ("perfbench: unparsable response: " ^ e)
  | Ok j ->
    let str k = Option.bind (Json.member k j) Json.to_str in
    let num k = Option.value (Option.bind (Json.member k j) Json.to_float) ~default:0. in
    let schedule =
      Option.bind (Json.member "schedule" j) (fun rows ->
          Option.map
            (fun rows ->
              Schedule.of_cells
                (Array.of_list
                   (List.map
                      (fun row ->
                        Array.of_list
                          (List.map
                             (fun c ->
                               match Json.to_int c with
                               | Some 0 -> Schedule.idle
                               | Some v -> v - 1
                               | None -> failwith "perfbench: bad schedule cell")
                             (Option.value (Json.to_list row) ~default:[])))
                      rows)))
            (Json.to_list rows))
    in
    ( Option.value (str "id") ~default:"",
      {
        at;
        code = int_of_float (num "code");
        verdict = str "verdict";
        cached = Option.value (Option.bind (Json.member "cached" j) Json.to_bool) ~default:false;
        solver = str "solver";
        queue_s = num "queue_s";
        time_s = num "time_s";
        schedule;
      } )

(* The stream's replies, by request index; warm-up replies are dropped. *)
let replies_of (reqs : W.request array) c =
  let index = Hashtbl.create (Array.length reqs) in
  Array.iteri (fun i (r : W.request) -> Hashtbl.replace index r.W.id i) reqs;
  let replies = Array.make (Array.length reqs) None in
  List.iter
    (fun line ->
      let id, r = parse_reply line in
      Option.iter (fun i -> replies.(i) <- Some r) (Hashtbl.find_opt index id))
    (collected c);
  replies

(* One open-loop replay of the stream through a fresh scheduler with
   default config: request [i] is due [i / rate] seconds after the start,
   whether or not earlier ones were answered. *)
type replay = {
  heap_words : int;  (** Major heap high-water, sampled before every send and at the end. *)
  t0 : float;
  sent : float array;
  due : float array;
  replies : reply option array;
  lateness : float array;
}

let replay_stream (reqs : W.request array) ~rate =
  let count = Array.length reqs in
  let sched, c = start_scheduler () in
  let sent = Array.make count 0. and due = Array.make count 0. in
  let heap_words = ref 0 in
  let sample_heap () = heap_words := Int.max !heap_words (Gc.quick_stat ()).Gc.heap_words in
  let t0 = now () in
  Array.iteri
    (fun i (req : W.request) ->
      due.(i) <- t0 +. (float_of_int i /. rate);
      sample_heap ();
      let wait = due.(i) -. now () in
      if wait > 0. then Unix.sleepf wait;
      sent.(i) <- now ();
      ignore (Scheduler.handle_line sched ~fallback_id:req.W.id req.W.line))
    reqs;
  Scheduler.shutdown sched;
  sample_heap ();
  let lateness = Array.init count (fun i -> sent.(i) -. due.(i)) in
  let max_late = Array.fold_left Float.max 0. lateness in
  (* A generator that sent a request after the next one was due no longer
     offers the stated load: discard the run. *)
  if max_late > 1. /. rate then begin
    Printf.eprintf
      "perfbench: generator fell behind (max lateness %.1f ms > inter-arrival %.1f ms); run discarded\n"
      (ms max_late) (ms (1. /. rate));
    exit 4
  end;
  { heap_words = !heap_words; t0; sent; due; replies = replies_of reqs c; lateness }

let fresh r = (not r.cached) && r.solver <> Some "front-door"

(* Send-to-emit time less queue wait: request [i]'s time in service. *)
let service_s rp i r = r.at -. rp.sent.(i) -. r.queue_s

(* The serve layer as one replay's responses report it; with [replica],
   every request then goes again through the serve layer's functions. *)
let observe_serve (s : serve_obs) l (reqs : W.request array) rp ~replica =
  let queue_waits = ref [] and solve_times = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some r ->
        if r.cached then s.cached <- s.cached + 1;
        if r.solver = Some "front-door" then s.front_door <- s.front_door + 1;
        if fresh r && (r.code = 0 || r.code = 2) then solve_times := r.time_s :: !solve_times;
        queue_waits := r.queue_s :: !queue_waits;
        if r.code = 5 then s.crashed <- s.crashed + 1;
        if r.code = 6 then s.rejected <- s.rejected + 1)
    rp.replies;
  s.queue_waits <- Array.of_list !queue_waits;
  s.solve_times <- Array.of_list !solve_times;
  if replica then begin
    let config = Scheduler.default_config () in
    let cache = Cache.create ~capacity:config.Scheduler.cache_capacity in
    Array.iteri
      (fun i req ->
        let v, dt, covered = replay_request s l cache config req in
        Option.iter (fun r -> attribute l ~untraced:(service_s rp i r) ~covered) rp.replies.(i);
        match rp.replies.(i) with
        | Some { code = 0 | 2; verdict = Some k; time_s; _ } -> compare_verdicts l (k, time_s) (kind_of v, dt)
        | Some _ | None -> ())
      reqs
  end

(* ------------------------------------------------------------------ *)
(* Batch workloads. *)

type best = {
  mutable verdict : Core.verdict option;  (** The first decided verdict, else the last. *)
  mutable time_s : float;  (** Fastest pass. *)
  mutable failed : bool;
}

let run_batch kind ~seed ~seconds ~trace =
  let setup () =
    let pool = W.instances kind ~suite:W.default_suite ~count:(W.suite_size kind ~seconds) in
    Array.iter
      (fun (ts, m) ->
        let budget = Prelude.Timer.budget ~wall_s:W.budget_s () in
        ignore (Core.solve ~budget ts ~m))
      (W.warmup_instances kind ~count:warmup_count);
    pool
  in
  let host = host_start () in
  let setup_times = ref [] in
  let n = W.suite_size kind ~seconds in
  let best =
    Array.init n (fun _ ->
        { verdict = None; time_s = Float.infinity; failed = false })
  in
  let l = layers () and o = oracle () in
  let attempts = ref 0 and decided_attempts = ref 0 and errors = ref 0 in
  let solve pool inst =
    let ts, m = pool.(inst) in
    let b = best.(inst) in
    let budget = Prelude.Timer.budget ~wall_s:W.budget_s () in
    incr attempts;
    match timed (fun () -> fst (Core.solve ~budget ts ~m)) with
    | exception _ ->
      incr errors;
      b.failed <- true
    | verdict, time_s ->
      (* Keep the first decided verdict; a later pass must not contradict it. *)
      (match b.verdict with
      | Some prev when decided prev ->
        if decided verdict && kind_of prev <> kind_of verdict then o.wrong <- o.wrong + 1
      | Some _ | None -> b.verdict <- Some verdict);
      b.time_s <- Float.min b.time_s time_s;
      if decided verdict then incr decided_attempts;
      if trace then begin
        let v, dt, covered = replica_solve l ~wall_s:W.budget_s ts ~m in
        attribute l ~untraced:time_s ~covered;
        compare_verdicts l (kind_of verdict, time_s) (kind_of v, dt)
      end
  in
  let pool = ref [||] in
  for pass = 1 to passes kind ~trace do
    let p = repeated_setup setup_times setup in
    pool := p;
    Array.iter (solve p) (W.order ~seed ~pass n)
  done;
  let pool = !pool in
  host_stop host;
  let heap_mb = peak_heap_mb () in
  Array.iteri
    (fun inst b ->
      let ts, m = pool.(inst) in
      match b.verdict with
      | Some (Core.Feasible sched) -> check_feasible o ts sched
      | Some Core.Infeasible -> check_infeasible o ts ~m
      | Some (Core.Limit | Core.Memout _) | None -> ())
    best;
  let n_decided =
    Array.fold_left (fun k b -> if Option.fold ~none:false ~some:decided b.verdict then k + 1 else k) 0 best
  in
  let n_failed = Array.fold_left (fun k b -> if b.failed then k + 1 else k) 0 best in
  let total_s = Array.fold_left (fun t b -> if b.failed then t else t +. b.time_s) 0. best in
  (* Latency percentiles cover every instance that ran the solve pipeline,
     decided or not: an undecided call's time is the budget it used.
     Over-utilized ones (r > 1) are answered in microseconds on every path,
     by serve's front door before any solve, and would put the median on
     the edge between two populations.  Counting only decided calls made
     the population itself depend on the host: a long-horizon instance
     decided near the budget only in a fast run moved p95 from 470 to
     300 ms. *)
  let latencies = ref [] in
  Array.iteri
    (fun inst b ->
      let ts, m = pool.(inst) in
      if (not b.failed) && not (W.over_utilized ts ~m) then latencies := b.time_s :: !latencies)
    best;
  let latencies = Array.of_list !latencies in
  print_info
    ([
       ("workload", Printf.sprintf "\"%s\"" (W.name kind));
       ("instances", string_of_int n);
       ("passes", string_of_int (passes kind ~trace));
       ("decided_in_some_pass", string_of_int n_decided);
       ("decided_attempts", string_of_int !decided_attempts);
       ("errors", string_of_int !errors);
       ("error_pct", json_float (Stats.pct_int !errors !attempts));
       ("latency_samples", string_of_int (Array.length latencies));
       ("setups", string_of_int (List.length !setup_times));
       ("best_solve_s", json_float total_s);
     ]
    @ host_info host @ oracle_info o);
  let metrics =
    if trace then
      (* Serve is not on the batch path: its numbers read zero here. *)
      layer_metrics l ~total:l.replica_s
      @ serve_metrics (serve_obs ()) ~requests:0
      @ oracle_metrics o @ [ host_metric host ]
    else
      [
        metric "setup_s" "s" (fastest setup_times);
        metric "instances_per_s" "1/s" (float_of_int (n - n_failed) /. total_s);
        metric "verdict_p50_ms" "ms" (ms (Stats.percentile ~pct:50 latencies));
        metric "verdict_p95_ms" "ms" (ms (Stats.percentile ~pct:95 latencies));
        metric "decided_pct" "%" (Stats.pct_int !decided_attempts !attempts);
        metric "peak_heap_mb" "MB" heap_mb;
      ]
  in
  print_result ~correct:(o.wrong = 0 && l.mismatches = 0) ~attempted:!attempts
    ~failed:(!errors + o.wrong + l.mismatches) metrics

(* ------------------------------------------------------------------ *)
(* Serve-mix. *)

(* Untraced runs replay the stream [W.passes] times, each through a fresh
   scheduler; latencies, decided shares and errors count every answer of
   every replay.  Unlike the batch passes, serve-mix does not keep a
   request's fastest answer.  A fresh solve comes back either in 120-160 ms
   or in 210-260 ms; in two runs on a busy host only about a fifth of the
   answers were fast, so best-of-3 made about half the requests fast and
   the p50 jumped between the two clusters from run to run (quartile
   spread 0.38 over ten runs).  Over every answer the p50 moves with the
   share of fast answers instead of flipping.  Traced runs
   replay the stream once, then replay every request through the serve
   layer's functions. *)
let run_serve ~seed ~seconds ~trace =
  let rate = W.offered_rps in
  let count = W.suite_size W.Serve_mix ~seconds in
  let setup () =
    let reqs = W.stream ~suite:W.default_suite ~seed ~count in
    let sched, _ = start_scheduler () in
    Scheduler.shutdown sched;
    reqs
  in
  let host = host_start () in
  let setup_times = ref [] in
  let replays =
    List.init (passes W.Serve_mix ~trace) (fun _ ->
        let reqs = repeated_setup setup_times setup in
        (reqs, replay_stream reqs ~rate))
  in
  let reqs = fst (List.hd replays) and replays = List.map snd replays in
  host_stop host;
  (* With worker domains allocating, the runtime's top-heap figure swung
     between 7 and 15 MB from run to run on the same stream (GC pacing);
     the sampled high-water stayed within 10%. *)
  let heap_mb =
    words_mb (List.fold_left (fun acc rp -> Int.max acc rp.heap_words) 0 replays)
  in
  let first = List.hd replays in
  let s = serve_obs () and l = layers () and o = oracle () in
  (* Stream properties, from the canonical keys and the first replay. *)
  let keys =
    Array.map
      (fun (r : W.request) ->
        Fingerprint.key (Fingerprint.of_taskset (Taskset.of_tuples r.W.tuples) ~m:r.W.m))
      reqs
  in
  let answered = Hashtbl.create count in
  let repeats = ref 0 and inflight = ref 0 in
  Array.iteri
    (fun i key ->
      let prev = Hashtbl.find_opt answered key in
      Option.iter
        (fun t ->
          incr repeats;
          if t > first.sent.(i) then incr inflight)
        prev;
      let t = match first.replies.(i) with Some r -> r.at | None -> Float.infinity in
      Hashtbl.replace answered key (Float.max t (Option.value prev ~default:0.)))
    keys;
  (* Outcomes, checks and latencies over every replay. *)
  let errors = ref 0 and decided_attempts = ref 0 in
  let latencies = ref [] in
  let key_verdict = Hashtbl.create count in
  let rates = ref [] in
  List.iter
    (fun rp ->
      let last_at = ref rp.t0 and responses = ref 0 in
      Array.iteri
        (fun i (req : W.request) ->
          match rp.replies.(i) with
          | None -> incr errors
          | Some r ->
            incr responses;
            last_at := Float.max !last_at r.at;
            if r.code <> 0 && r.code <> 2 then incr errors;
            if (r.code = 0 || r.code = 2) && fresh r then
              latencies := (r.at -. rp.due.(i)) :: !latencies;
            if r.code = 0 then begin
              incr decided_attempts;
              let ts = Taskset.of_tuples req.W.tuples in
              (* Decided verdicts on one canonical instance must agree. *)
              (match (Hashtbl.find_opt key_verdict keys.(i), r.verdict) with
              | Some v, Some v' when v <> v' -> o.wrong <- o.wrong + 1
              | Some _, _ | None, None -> ()
              | None, Some v ->
                Hashtbl.add key_verdict keys.(i) v;
                if v = "infeasible" then check_infeasible o ts ~m:req.W.m);
              match (r.verdict, r.schedule) with
              | Some "feasible", Some sched -> check_feasible o ts sched
              | Some "feasible", None -> o.wrong <- o.wrong + 1
              | _ -> ()
            end)
        reqs;
      rates := (float_of_int !responses /. (!last_at -. rp.t0)) :: !rates)
    replays;
  let attempted = count * List.length replays in
  let latencies = Array.of_list !latencies in
  observe_serve s l reqs first ~replica:trace;
  print_info
    ([
       ("workload", "\"serve-mix\"");
       ("offered_rps", json_float rate);
       ("requests", string_of_int count);
       ("replays", string_of_int (List.length replays));
       ("distinct", string_of_int (count - !repeats));
       ("repeat_pct", json_float (Stats.pct_int !repeats count));
       ("inflight_repeat_pct", json_float (Stats.pct_int !inflight count));
       ("front_door_pct", json_float (Stats.pct_int s.front_door count));
       ("cache_hit_pct", json_float (Stats.pct_int s.cached count));
       ( "generator_lateness_p50_ms",
         json_float (ms (Stats.median (Array.concat (List.map (fun rp -> rp.lateness) replays)))) );
       ( "generator_lateness_max_ms",
         json_float
           (ms
              (List.fold_left
                 (fun acc rp -> Array.fold_left Float.max acc rp.lateness)
                 0. replays)) );
       ("decided_attempts", string_of_int !decided_attempts);
       ("errors", string_of_int !errors);
       ("error_pct", json_float (Stats.pct_int !errors attempted));
       ("latency_samples", string_of_int (Array.length latencies));
       ("setups", string_of_int (List.length !setup_times));
     ]
    @ host_info host @ oracle_info o);
  let metrics =
    if trace then
      layer_metrics l ~total:s.request_s
      @ serve_metrics s ~requests:count
      @ oracle_metrics o @ [ host_metric host ]
    else
      [
        metric "setup_s" "s" (fastest setup_times);
        metric "instances_per_s" "1/s" (Stats.median (Array.of_list !rates));
        metric "verdict_p50_ms" "ms" (ms (Stats.percentile ~pct:50 latencies));
        metric "verdict_p95_ms" "ms" (ms (Stats.percentile ~pct:95 latencies));
        metric "decided_pct" "%" (Stats.pct_int !decided_attempts attempted);
        metric "peak_heap_mb" "MB" heap_mb;
      ]
  in
  print_result ~correct:(o.wrong = 0 && l.mismatches = 0) ~attempted
    ~failed:(!errors + o.wrong + l.mismatches) metrics

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME table1 | long-horizon | serve-mix");
      ("--seed", Arg.Set_int seed, "N batch order and repeat task order");
      ("--seconds", Arg.Set_float seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match W.of_name !workload with
    | Some k -> k
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  print_info
    [
      ("workload", Printf.sprintf "\"%s\"" (W.name kind));
      ("suite", string_of_int W.default_suite);
      ("seed", string_of_int seed);
      ("seconds", json_float seconds);
      ("trace", string_of_bool trace);
      ("budget_s", json_float W.budget_s);
      ("offered_rps", json_float W.offered_rps);
      ("ocaml_version", Printf.sprintf "\"%s\"" Sys.ocaml_version);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("default_solver", Printf.sprintf "\"%s\"" (Core.solver_name Core.default_solver));
    ];
  match kind with
  | W.Table1 | W.Long_horizon -> run_batch kind ~seed ~seconds ~trace
  | W.Serve_mix -> run_serve ~seed ~seconds ~trace
