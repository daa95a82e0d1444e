(* Tests for the static schedulability analyzer: verdicts on hand-crafted
   instances, independent certificate validation (including corrupted
   certificates), pruned-domain soundness against verified schedules, and
   differential properties against the complete CSP2 backend. *)

open Rt_model
module O = Encodings.Outcome
module A = Analysis

let check = Alcotest.check
let qtest = Test_util.qtest

let analyze ?work_budget ts ~m = A.analyze ?work_budget ts ~m

let validate ts ~m cert = A.Certificate.validate ts (Platform.identical ~m) cert

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

let infeasible_cert name report =
  match report.A.verdict with
  | A.Infeasible cert -> cert
  | A.Trivially_feasible _ -> Alcotest.fail (name ^ ": expected Infeasible, got Trivially_feasible")
  | A.Pruned _ -> Alcotest.fail (name ^ ": expected Infeasible, got Pruned")

(* ------------------------------------------------------------------ *)
(* Hand-crafted verdicts                                                *)

(* The running example needs 2 processors (U = 23/12): on one, the r > 1
   filter fires with an exact utilization certificate. *)
let test_utilization_certificate () =
  let ts = Examples.running_example in
  let report = analyze ts ~m:1 in
  let cert = infeasible_cert "running m=1" report in
  (match cert.steps with
  | [ A.Certificate.Utilization { demand = 23; supply = 12 } ] -> ()
  | _ -> Alcotest.fail "expected a bare utilization step");
  Alcotest.(check bool) "validates" true (validate ts ~m:1 cert);
  check Alcotest.int "m_lower" 2 report.m_lower;
  Alcotest.(check (list string)) "nothing skipped" [] report.skipped

(* Three laxity-zero tasks share the slots {0,1}: every feasible schedule
   runs all three there, overloading m = 2 — caught without any search,
   while U = 1.5 <= m keeps the r > 1 filter silent. *)
let test_slot_overload () =
  let ts = Taskset.of_tuples [ (0, 2, 2, 4); (0, 2, 2, 4); (0, 2, 2, 4) ] in
  let report = analyze ts ~m:2 in
  let cert = infeasible_cert "zero-laxity overload" report in
  Alcotest.(check bool) "validates" true (validate ts ~m:2 cert);
  Alcotest.(check bool) "overload terminal" true
    (match List.rev cert.steps with A.Certificate.Slot_overload _ :: _ -> true | _ -> false);
  check Alcotest.int "m_lower from forced slots" 3 report.m_lower

(* Saturation cascade: two laxity-zero tasks saturate slots 0 and 1, which
   blocks the third task's only window and forces it into slot 1 — a
   three-step derivation ending in an overload. *)
let test_saturation_cascade () =
  let ts = Taskset.of_tuples [ (0, 2, 2, 4); (0, 2, 2, 4); (0, 1, 2, 4) ] in
  let report = analyze ts ~m:2 in
  let cert = infeasible_cert "saturation cascade" report in
  Alcotest.(check bool) "validates" true (validate ts ~m:2 cert);
  Alcotest.(check bool) "has a saturation step" true
    (List.exists (function A.Certificate.Saturated _ -> true | _ -> false) cert.steps)

(* Interval demand: on [0, 4) tasks τ1 and τ2 are forced to place 3 units
   each while m = 1 supplies 4 slots.  Utilization is exactly 1 and the
   hyperperiod supply matches the demand, so only the interval test can
   refute this instance statically. *)
let interval_trap =
  Taskset.of_tuples [ (0, 3, 4, 6); (0, 4, 5, 12); (10, 1, 2, 12); (5, 1, 1, 12) ]

let test_interval_demand () =
  let ts = interval_trap in
  Alcotest.(check bool) "r <= 1" false (A.utilization_exceeds ts ~m:1);
  let report = analyze ts ~m:1 in
  let cert = infeasible_cert "interval trap" report in
  Alcotest.(check bool) "validates" true (validate ts ~m:1 cert);
  Alcotest.(check bool) "interval terminal" true
    (match List.rev cert.steps with A.Certificate.Interval_demand _ :: _ -> true | _ -> false);
  (* The interval argument is m-independent here: ⌈6/4⌉ = 2 processors are
     needed although ⌈U⌉ = 1. *)
  check Alcotest.int "m_lower beats ceil U" 2 report.m_lower;
  check Alcotest.int "m_lower_bound agrees" 2 (A.m_lower_bound ts)

(* U exactly m must NOT be filtered by r > 1 (r = 1 is allowed) — but the
   analyzer is strictly stronger: both tasks' only window is slot 0, so the
   forced-slot argument still refutes m = 1. *)
let test_exact_boundary () =
  let ts = Taskset.of_tuples [ (0, 1, 1, 2); (0, 1, 1, 2) ] in
  Alcotest.(check bool) "r = 1 passes the filter" false (A.utilization_exceeds ts ~m:1);
  let cert = infeasible_cert "r = 1 but slot-overloaded" (analyze ts ~m:1) in
  Alcotest.(check bool) "validates" true (validate ts ~m:1 cert)

(* Sparse windows (the old slot_capacity_shortfall test family): demand 4
   per hyperperiod 4 but only three covered slots, so the hyperperiod
   supply argument refutes m = 1 without any forced slot. *)
let test_supply_shortfall () =
  let ts = Taskset.of_tuples [ (0, 2, 3, 4); (0, 2, 3, 4) ] in
  let report = analyze ts ~m:1 in
  let cert = infeasible_cert "sparse windows" report in
  Alcotest.(check bool) "validates" true (validate ts ~m:1 cert);
  Alcotest.(check bool) "supply terminal" true
    (match List.rev cert.steps with A.Certificate.Supply_shortfall _ :: _ -> true | _ -> false);
  match (analyze ts ~m:2).A.verdict with
  | A.Infeasible _ -> Alcotest.fail "feasible on two processors"
  | _ -> ()

(* Saturation prunes but does not refute: the fixpoint forces τ3 into
   slots {2,3} and blocks τ3/τ4 from the saturated slots {0,1}. *)
let pruned_example =
  Taskset.of_tuples [ (0, 2, 2, 4); (0, 2, 2, 4); (0, 2, 4, 4); (0, 1, 4, 4) ]

let test_pruned_domains () =
  let ts = pruned_example in
  let report = analyze ts ~m:2 in
  match report.A.verdict with
  | A.Pruned d ->
    Alcotest.(check bool) "fingerprint" true (A.Domains.matches d ~n:4 ~m:2 ~horizon:4);
    check Alcotest.int "forced cells" 6 (A.Domains.forced_cells d);
    check Alcotest.int "blocked cells" 4 (A.Domains.blocked_cells d);
    Alcotest.(check (list int)) "slot 0 forced" [ 0; 1 ] (A.Domains.forced_at d ~time:0);
    Alcotest.(check bool) "τ3 forced at 2" true (A.Domains.is_forced d ~task:2 ~time:2);
    Alcotest.(check bool) "τ3 blocked at 0" true (A.Domains.is_blocked d ~task:2 ~time:0);
    (* The instance is feasible; the unique (up to processor symmetry)
       schedule must respect the derived domains. *)
    (match Csp2.Solver.solve ts ~m:2 with
    | O.Feasible sched, _ ->
      Alcotest.(check bool) "verified" true (Verify.is_feasible ts sched);
      Alcotest.(check bool) "respects domains" true (A.Domains.respects d sched)
    | _ -> Alcotest.fail "pruned example should be feasible on 2 processors")
  | _ -> Alcotest.fail "expected Pruned"

let test_trivially_feasible () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 2); (0, 1, 2, 2) ] in
  let report = analyze ts ~m:2 in
  match report.A.verdict with
  | A.Trivially_feasible sched ->
    Alcotest.(check bool) "verified" true (Verify.is_feasible ts sched)
  | _ -> Alcotest.fail "expected Trivially_feasible"

(* The old slot_capacity_shortfall guard silently returned "no conclusion"
   over the 10^7 cost line; the analyzer must now say so. *)
let test_budget_skip_is_reported () =
  let ts = Examples.running_example in
  let report = analyze ~work_budget:10 ts ~m:2 in
  Alcotest.(check bool) "skip reported" true (report.A.skipped <> []);
  match report.A.verdict with
  | A.Pruned d ->
    check Alcotest.int "m_lower still exact" 2 (A.Domains.m_lower d);
    check Alcotest.int "no facts claimed" 0 (A.Domains.forced_cells d + A.Domains.blocked_cells d)
  | _ -> Alcotest.fail "budget-starved analysis must stay inconclusive"

let test_wall_budget_skip_is_reported () =
  (* An already-expired wall budget must stop the window passes at the
     first checkpoint — reported, never silently degraded — so a caller
     racing the analyzer (portfolio arm 0) cannot lose its whole
     allowance to a slow interval scan. *)
  let ts = Examples.running_example in
  let wall = Prelude.Timer.budget ~wall_s:0.0 () in
  let report = A.analyze ~wall ts ~m:2 in
  (* The default work budget cannot trigger on the tiny running example,
     so any reported skip here comes from the wall check. *)
  Alcotest.(check bool) "skip reported" true (report.A.skipped <> []);
  (match report.A.verdict with
  | A.Pruned _ -> ()
  | _ -> Alcotest.fail "wall-starved analysis must stay inconclusive");
  let cancelled = Prelude.Timer.budget () in
  Prelude.Timer.cancel cancelled;
  let report = A.analyze ~wall:cancelled ts ~m:2 in
  Alcotest.(check bool) "cancelled budget also skips" true (report.A.skipped <> [])

(* A work budget that covers the window passes but not the interval sweep:
   the sweep is priced whole and skipped with a note naming it, and
   [m_lower] falls back to the windows-only bound.  On [interval_trap],
   n·T + Σ (T/T_i)·D_i = 4·12 + (8 + 5 + 2 + 1) = 64 units pays for the
   window tables and leaves nothing; ⌈U⌉, the zero-laxity peak and the
   supply bound are all 1, while the skipped sweep would have raised the
   bound to 2 (see [test_interval_demand]). *)
let test_sweep_priced_against_budget () =
  let report = analyze ~work_budget:64 interval_trap ~m:1 in
  (match report.A.verdict with
  | A.Pruned _ -> ()
  | _ -> Alcotest.fail "a skipped sweep must leave the verdict inconclusive");
  Alcotest.(check bool) "skip names the interval sweep" true
    (List.exists (fun note -> contains note "interval sweep") report.A.skipped);
  check Alcotest.int "windows-only m_lower" 1 report.A.m_lower

(* With default budgets the analyzer runs every pass to the end on the
   paper's Table I regime (n = 10, m = 5, Tmax = 7). *)
let test_table1_stream_untruncated () =
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  Array.iteri
    (fun i (ts, m) ->
      Alcotest.(check (list string))
        (Printf.sprintf "instance %d: nothing skipped" i)
        [] (A.analyze ts ~m).A.skipped)
    (Gen.Generator.batch ~seed:1 ~count:20 params)

let test_rejects_bad_arguments () =
  Alcotest.check_raises "m = 0"
    (Invalid_argument "Analysis.analyze: m must be >= 1") (fun () ->
      ignore (analyze Examples.running_example ~m:0));
  let loose = Taskset.of_tuples [ (0, 1, 5, 3) ] in
  Alcotest.(check bool) "arbitrary deadlines rejected" true
    (try
       ignore (analyze loose ~m:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Certificate validation is adversarial                                *)

let test_corrupted_certificates_rejected () =
  let ts = interval_trap in
  let cert = infeasible_cert "interval trap" (analyze ts ~m:1) in
  Alcotest.(check bool) "genuine" true (validate ts ~m:1 cert);
  let tamper f = { cert with A.Certificate.steps = f cert.A.Certificate.steps } in
  let tampered_demand =
    tamper
      (List.map (function
        | A.Certificate.Interval_demand i ->
          A.Certificate.Interval_demand { i with demand = i.demand + 1 }
        | s -> s))
  in
  Alcotest.(check bool) "tampered demand" false (validate ts ~m:1 tampered_demand);
  let wrong_m = { cert with A.Certificate.m = 2 } in
  Alcotest.(check bool) "wrong m" false (validate ts ~m:2 wrong_m);
  Alcotest.(check bool) "platform mismatch" false
    (A.Certificate.validate ts (Platform.identical ~m:2) cert);
  Alcotest.(check bool) "empty chain" false
    (validate ts ~m:1 { A.Certificate.m = 1; steps = [] });
  let no_terminal =
    tamper (List.filter (function A.Certificate.Interval_demand _ -> false | _ -> true))
  in
  Alcotest.(check bool) "derivations only" false (validate ts ~m:1 no_terminal);
  (* A fabricated overload on a healthy instance must not validate. *)
  let fake =
    { A.Certificate.m = 2; steps = [ A.Certificate.Slot_overload { time = 0 } ] }
  in
  Alcotest.(check bool) "fabricated overload" false
    (validate Examples.running_example ~m:2 fake)

(* m·T past max_int: a utilization step whose supply wrapped around below
   the demand must not validate, and the exact filter must stay silent. *)
let test_wrapped_supply_rejected () =
  let ts = Examples.running_example in
  let num, den = Taskset.utilization_num_den ts in
  let m = (max_int / 2) + 1 in
  let supply = m * den in
  Alcotest.(check bool) "the product wraps below the demand" true (supply < num);
  let cert =
    { A.Certificate.m; steps = [ A.Certificate.Utilization { demand = num; supply } ] }
  in
  Alcotest.(check bool) "wrapped supply rejected" false (validate ts ~m cert);
  Alcotest.(check bool) "filter silent" false (A.utilization_exceeds ts ~m)

let test_certificate_pp () =
  let cert = infeasible_cert "interval trap" (analyze interval_trap ~m:1) in
  let s = Format.asprintf "%a" A.Certificate.pp cert in
  Alcotest.(check bool) "mentions the interval" true (contains s "interval")

(* ------------------------------------------------------------------ *)
(* Differential properties against the complete CSP2 backend            *)

let solve_exact ts ~m =
  let budget = Prelude.Timer.budget ~wall_s:10.0 () in
  fst (Csp2.Solver.solve ~budget ts ~m)

(* Every Infeasible verdict carries a valid certificate and never
   contradicts the complete solver; every Trivially_feasible verdict is a
   verified schedule. *)
let prop_analyzer_agrees_with_backend =
  qtest ~count:300 "analyzer never contradicts CSP2"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      let report = analyze ts ~m in
      match report.A.verdict with
      | A.Infeasible cert ->
        validate ts ~m cert
        && (match solve_exact ts ~m with O.Feasible _ -> false | _ -> true)
      | A.Trivially_feasible sched -> Verify.is_feasible ts sched
      | A.Pruned _ -> true)

(* Domain soundness: any schedule the verifier accepts also respects the
   analyzer's pruned domains (forced cells are truly forced, blocked cells
   truly dead). *)
let prop_domains_sound =
  qtest ~count:300 "verified schedules respect pruned domains"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match (analyze ts ~m).A.verdict with
      | A.Pruned d -> (
        match solve_exact ts ~m with
        | O.Feasible sched -> Verify.is_feasible ts sched && A.Domains.respects d sched
        | _ -> true)
      | A.Infeasible _ | A.Trivially_feasible _ -> true)

(* Pruned domains only ever shrink the dedicated solver's search: with the
   analyzer's facts wired in, CSP2 reaches the same verdict in at most as
   many nodes. *)
let prop_csp2_nodes_monotone =
  qtest ~count:300 "csp2 node count with domains <= without"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match (analyze ts ~m).A.verdict with
      | A.Pruned d ->
        let budget () = Prelude.Timer.budget ~wall_s:10.0 () in
        let bare, bare_stats = Csp2.Solver.solve ~budget:(budget ()) ts ~m in
        let pruned, pruned_stats = Csp2.Solver.solve ~budget:(budget ()) ~domains:d ts ~m in
        let same_verdict =
          match (bare, pruned) with
          | O.Feasible _, O.Feasible _
          | O.Infeasible, O.Infeasible
          | O.Limit, _ | _, O.Limit -> true
          | _ -> false
        in
        same_verdict && pruned_stats.Csp2.Solver.nodes <= bare_stats.Csp2.Solver.nodes
      | A.Infeasible _ | A.Trivially_feasible _ -> true)

(* Local search with domains still only returns verified schedules, and
   those honor the pruned domains it was seeded with. *)
let prop_localsearch_respects_domains =
  qtest ~count:100 "min-conflicts with domains returns respecting schedules"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match (analyze ts ~m).A.verdict with
      | A.Pruned d -> (
        let budget = Prelude.Timer.budget ~nodes:200_000 () in
        match Localsearch.Min_conflicts.solve ~budget ~domains:d ts ~m with
        | O.Feasible sched, _ -> Verify.is_feasible ts sched && A.Domains.respects d sched
        | _ -> true)
      | A.Infeasible _ | A.Trivially_feasible _ -> true)

(* Test-only reference for the interval sweep: the direct enumeration
   of every (release start, deadline end) pair, counting each job's usable
   slots inside the cyclic interval as Certificate.validate does.
   Returns the max ⌈demand/len⌉ (at least 1) and whether some interval's
   forced demand exceeds m·len. *)
let reference_demand windows ~usable ~start ~len =
  let ts = Windows.taskset windows and horizon = Windows.horizon windows in
  Array.fold_left
    (fun acc (job : Windows.job) ->
      let usable_in pred =
        Array.fold_left
          (fun n s -> if usable job.task s && pred s then n + 1 else n)
          0 job.slots
      in
      let inside = usable_in (fun s -> Prelude.Intmath.imod (s - start) horizon < len) in
      let outside = usable_in (fun _ -> true) - inside in
      acc + Int.max 0 ((Taskset.task ts job.task).wcet - outside))
    0 (Windows.jobs windows)

let reference_interval_scan windows ~usable ~m =
  let ts = Windows.taskset windows and horizon = Windows.horizon windows in
  let points f =
    List.sort_uniq Int.compare
      (Array.to_list
         (Array.map
            (fun (job : Windows.job) -> Prelude.Intmath.imod (f job) horizon)
            (Windows.jobs windows)))
  in
  let starts = points (fun job -> job.release) in
  let ends = points (fun job -> job.release + (Taskset.task ts job.task).deadline) in
  let bound = ref 1 and exceeds = ref false in
  List.iter
    (fun start ->
      List.iter
        (fun e ->
          let len = Prelude.Intmath.imod (e - start) horizon in
          if len > 0 then begin
            let demand = reference_demand windows ~usable ~start ~len in
            if demand > 0 then bound := Int.max !bound (Prelude.Intmath.cdiv demand len);
            if demand > m * len then exceeds := true
          end)
        ends)
    starts;
  (!bound, !exceeds)

let sweep_matches_reference windows ~usable ~m =
  let bound, hit = A.interval_sweep windows ~usable ~m in
  let ref_bound, ref_exceeds = reference_interval_scan windows ~usable ~m in
  bound = ref_bound
  && Option.is_some hit = ref_exceeds
  &&
  match hit with
  | None -> true
  | Some (start, len, demand) ->
    demand = reference_demand windows ~usable ~start ~len && demand > m * len

(* The sweep against the reference on the pristine windows, on the
   post-fixpoint windows (in-window cells minus the blocked ones) and on
   an arbitrary usable subset, where some jobs keep fewer slots than C. *)
let prop_sweep_matches_reference =
  qtest ~count:300 "interval sweep matches the direct enumeration"
    QCheck2.Gen.(pair (Test_util.instance_gen ()) nat)
    ~print:(fun (inst, salt) -> Printf.sprintf "%s salt=%d" (Test_util.print_instance inst) salt)
    (fun ((ts, m), salt) ->
      let windows = Windows.build ts in
      let post =
        match (A.analyze ~work_budget:max_int ts ~m).A.verdict with
        | A.Pruned d -> fun task time -> not (A.Domains.is_blocked d ~task ~time)
        | A.Infeasible _ | A.Trivially_feasible _ -> fun _ _ -> true
      in
      sweep_matches_reference windows ~usable:(fun _ _ -> true) ~m
      && sweep_matches_reference windows ~usable:post ~m
      && sweep_matches_reference windows
           ~usable:(fun task time -> Hashtbl.hash (salt, task, time) mod 4 <> 0)
           ~m)

(* Every interval certificate the analyzer emits replays.  Instances come
   from the paper's generator, in the Table I regime and two smaller ones
   where saturation blocks cells before the post-fixpoint sweep refutes:
   uniform random task sets almost never reach an interval refutation. *)
let generator_instance_gen =
  let open QCheck2.Gen in
  oneofl [ (10, 5, 7); (6, 3, 6); (8, 4, 6) ] >>= fun (n, m, tmax) ->
  int >>= fun seed ->
  return
    (Gen.Generator.generate (Prelude.Prng.create ~seed)
       (Gen.Generator.default ~n ~m:(Gen.Generator.Fixed_m m) ~tmax))

let prop_interval_certificates_validate =
  qtest ~count:500 "interval-demand certificates re-validate" generator_instance_gen
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match (A.analyze ~work_budget:max_int ts ~m).A.verdict with
      | A.Infeasible ({ A.Certificate.steps; _ } as cert) -> (
        match List.rev steps with
        | A.Certificate.Interval_demand _ :: _ -> validate ts ~m cert
        | _ -> true)
      | A.Trivially_feasible _ | A.Pruned _ -> true)

(* The m-independent lower bound never excludes a feasible processor
   count. *)
let prop_m_lower_sound =
  qtest ~count:300 "m_lower_bound never exceeds a feasible m"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match solve_exact ts ~m with
      | O.Feasible _ -> A.m_lower_bound ts <= m
      | _ -> true)

let () =
  Alcotest.run "analysis"
    [
      ( "verdicts",
        [
          Alcotest.test_case "utilization certificate" `Quick test_utilization_certificate;
          Alcotest.test_case "slot overload" `Quick test_slot_overload;
          Alcotest.test_case "saturation cascade" `Quick test_saturation_cascade;
          Alcotest.test_case "interval demand" `Quick test_interval_demand;
          Alcotest.test_case "r = 1 boundary" `Quick test_exact_boundary;
          Alcotest.test_case "supply shortfall" `Quick test_supply_shortfall;
          Alcotest.test_case "pruned domains" `Quick test_pruned_domains;
          Alcotest.test_case "trivially feasible" `Quick test_trivially_feasible;
          Alcotest.test_case "budget skip reported" `Quick test_budget_skip_is_reported;
          Alcotest.test_case "wall budget skip reported" `Quick test_wall_budget_skip_is_reported;
          Alcotest.test_case "sweep priced against the budget" `Quick
            test_sweep_priced_against_budget;
          Alcotest.test_case "table I stream untruncated" `Quick test_table1_stream_untruncated;
          Alcotest.test_case "bad arguments" `Quick test_rejects_bad_arguments;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "corrupted certificates rejected" `Quick
            test_corrupted_certificates_rejected;
          Alcotest.test_case "wrapped supply rejected" `Quick test_wrapped_supply_rejected;
          Alcotest.test_case "pretty-printing" `Quick test_certificate_pp;
        ] );
      ( "differential",
        [
          prop_analyzer_agrees_with_backend;
          prop_domains_sound;
          prop_csp2_nodes_monotone;
          prop_localsearch_respects_domains;
          prop_m_lower_sound;
          prop_sweep_matches_reference;
          prop_interval_certificates_validate;
        ] );
    ]
