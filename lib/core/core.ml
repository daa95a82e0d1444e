open Prelude
open Rt_model

type solver =
  | Csp1_generic
  | Csp1_sat
  | Csp2_generic
  | Csp2_dedicated of Csp2.Heuristic.t
  | Csp2_opt of Csp2.Heuristic.t
  | Local_search
  | Portfolio

let default_solver = Csp2_dedicated Csp2.Heuristic.DC

let solver_name = function
  | Csp1_generic -> "csp1"
  | Csp1_sat -> "csp1-sat"
  | Csp2_generic -> "csp2-generic"
  | Csp2_dedicated h -> "csp2+" ^ Csp2.Heuristic.to_string h
  | Csp2_opt h -> "csp2-opt+" ^ Csp2.Heuristic.to_string h
  | Local_search -> "local-search"
  | Portfolio -> "portfolio"

(* Inverse of {!solver_name}'s CLI spellings; shared by the cmdliner
   converter in [bin/mgrts.ml] and the serve protocol's "solver" field so
   the two front ends cannot drift. *)
let solver_of_string s =
  let prefixed prefix other =
    let pl = String.length prefix in
    if String.length other > pl && String.sub other 0 pl = prefix then
      Some (String.sub other pl (String.length other - pl))
    else None
  in
  match String.lowercase_ascii s with
  | "csp1" -> Some Csp1_generic
  | "csp1-sat" | "sat" -> Some Csp1_sat
  | "csp2-generic" -> Some Csp2_generic
  | "local" | "local-search" -> Some Local_search
  | "portfolio" -> Some Portfolio
  | "csp2-opt" | "opt" -> Some (Csp2_opt Csp2.Heuristic.DC)
  | "csp2" -> Some (Csp2_dedicated Csp2.Heuristic.Id)
  | other -> (
    match prefixed "csp2-opt+" other with
    | Some h -> Option.map (fun h -> Csp2_opt h) (Csp2.Heuristic.of_string h)
    | None -> (
      match prefixed "csp2+" other with
      | Some h -> Option.map (fun h -> Csp2_dedicated h) (Csp2.Heuristic.of_string h)
      | None -> None))

let all_solvers =
  [
    Csp1_generic;
    Csp1_sat;
    Csp2_generic;
    Csp2_dedicated Csp2.Heuristic.DC;
    Csp2_opt Csp2.Heuristic.DC;
    Local_search;
    Portfolio;
  ]

type verdict = Encodings.Outcome.t =
  | Feasible of Rt_model.Schedule.t
  | Infeasible
  | Limit
  | Memout of string

(* One engine run on a constrained-deadline system, as a race result: the
   portfolio's own, or a single arm.  The four engines the portfolio also
   races go through its table ({!Portfolio.run_spec}). *)
let engine solver ~platform ~budget ~seed ~analyze ?jobs ?memo_mb ?nogoods ?split_depth
    ?stall_beats ?domains ts ~m =
  let identical = Platform.is_identical platform in
  let backend = solver_name solver in
  let require_identical name =
    if not identical then
      invalid_arg (Printf.sprintf "Core.run: %s requires an identical platform" name)
  in
  (* The heterogeneous fallback for the dedicated engines is {!Csp2.Het},
     which knows nothing of pruned domains: the analyzer derives them
     assuming identical unit-speed processors, so silently dropping them
     would be wrong twice over (the caller computed them for a different
     machine, and the solver would ignore an argument it was given).
     Reject loudly instead.  [seed] is genuinely unused on these paths —
     the dedicated searches are deterministic — so dropping it is fine. *)
  let het name heuristic =
    if domains <> None then
      invalid_arg
        (Printf.sprintf
           "Core.run: %s on a heterogeneous platform falls back to Csp2.Het, which cannot \
            use pruned domains (they assume identical processors)"
           name);
    let outcome, st = Csp2.Het.solve ~heuristic ~budget ~platform ts in
    (outcome, Csp2.Solver.to_stats ~backend st)
  in
  let fd (outcome, st) =
    ( outcome,
      match st with
      | Some st -> Fd.Search.to_stats ~backend st
      | None -> Telemetry.Stats.make ~backend () )
  in
  let spec s = Portfolio.run_spec s ~budget ~seed ?memo_mb ?nogoods ?domains ts ~m in
  let single (outcome, stats) =
    let won = Encodings.Outcome.is_decided outcome in
    {
      Portfolio.verdict = outcome;
      winner = (if won then Some backend else None);
      time_s = stats.Telemetry.Stats.time_s;
      backends =
        [
          { Portfolio.name = backend; outcome = Some outcome; stats; winner = won; status = Ran };
        ];
    }
  in
  match solver with
  | Portfolio ->
    require_identical "Portfolio";
    Portfolio.solve ?jobs ~budget ~seed ~analyze ?stall_beats ?domains ts ~m
  | Csp1_generic -> single (fd (Encodings.Csp1.solve ~platform ~budget ~seed ?domains ts ~m))
  | Csp2_generic -> single (fd (Encodings.Csp2_fd.solve ~platform ~budget ~seed ?domains ts ~m))
  | Csp1_sat ->
    require_identical "Csp1_sat";
    single (spec Portfolio.Csp1_sat)
  | Local_search ->
    require_identical "Local_search";
    single (spec Portfolio.Local_search)
  | Csp2_dedicated h when not identical -> single (het "Csp2_dedicated" h)
  | Csp2_dedicated h -> single (spec (Portfolio.Csp2 h))
  | Csp2_opt h when not identical -> single (het "Csp2_opt" h)
  | Csp2_opt heuristic -> (
    match jobs with
    | Some jobs when jobs > 1 ->
      let outcome, st =
        Csp2.Opt.solve_parallel ~heuristic ~budget ?domains ?memo_mb ?nogoods ~jobs ?split_depth
          ts ~m
      in
      single (outcome, Csp2.Opt.to_stats ~backend st)
    | _ -> single (spec (Portfolio.Csp2_opt heuristic)))

let dispatch solver ~platform ~budget ~seed ?domains ts ~m =
  (engine solver ~platform ~budget ~seed ~analyze:false ?domains ts ~m).Portfolio.verdict

let run ?(solver = default_solver) ?platform ?(budget = Timer.unlimited) ?(seed = 0)
    ?(verify = true) ?(analyze = true) ?jobs ?memo_mb ?nogoods ?split_depth ?stall_beats ts ~m =
  let platform = match platform with Some p -> p | None -> Platform.identical ~m in
  if Platform.processors platform <> m then invalid_arg "Core.run: platform/m mismatch";
  let t0 = Timer.start () in
  let verified span check =
    if verify then
      Telemetry.with_span span ~cat:"core" (fun () ->
          match check () with
          | Ok () -> ()
          | Error (v :: _) ->
            failwith
              (Format.asprintf "Core.run: solver produced an invalid schedule: %a"
                 Verify.pp_violation v)
          | Error [] -> assert false)
  in
  (* Arbitrary deadlines: reduce via the clone transform (Section VI-B),
     solve the constrained clone system, map task ids back. *)
  let reduction = if Taskset.is_constrained ts then None else Some (Clone.transform ts) in
  let cts, cplatform =
    match reduction with
    | None -> (ts, platform)
    | Some r -> (Clone.cloned r, Clone.map_platform r platform)
  in
  (* The static pass decides outright when it can, and otherwise hands the
     engine its pruned domains.  The portfolio runs it itself, as its
     supervised arm 0 capped at half the wall. *)
  let pre =
    match solver with
    | Portfolio -> `Search (None, [])
    | _ ->
      Telemetry.with_span "static-pass" ~cat:"core" (fun () ->
          if not (analyze && Platform.is_identical cplatform) then `Search (None, [])
          else
            match Portfolio.analysis_arm (Analysis.analyze ~wall:budget cts ~m) with
            | `Decided arm0 -> `Decided arm0
            | `Pruned (d, arm0) -> `Search (Some d, [ arm0 ]))
  in
  let r =
    match pre with
    | `Decided arm0 ->
      {
        Portfolio.verdict = Option.get arm0.Portfolio.outcome;
        winner = Some arm0.Portfolio.name;
        time_s = 0.;
        backends = [ arm0 ];
      }
    | `Search (domains, arms) ->
      let r =
        Telemetry.with_span ("search:" ^ solver_name solver) ~cat:"core" (fun () ->
            engine solver ~platform:cplatform ~budget ~seed ~analyze ?jobs ?memo_mb ?nogoods
              ?split_depth ?stall_beats ?domains cts ~m)
      in
      { r with Portfolio.backends = arms @ r.Portfolio.backends }
  in
  let verdict =
    match r.Portfolio.verdict with
    | Feasible schedule -> (
      verified "verify" (fun () -> Verify.check ~platform:cplatform cts schedule);
      match reduction with
      | None -> r.Portfolio.verdict
      | Some reduction ->
        (* Clone-mapped schedules span the clone hyperperiod and serve the
           original (possibly arbitrary-deadline) system: re-verify them
           with the cyclic checker against the *original* task set — the
           clone-level check alone would let a [Clone.map_schedule] bug
           ship an invalid schedule. *)
        let mapped = Clone.map_schedule reduction schedule in
        verified "verify-mapped" (fun () -> Verify.check_cyclic ~platform ts mapped);
        Feasible mapped)
    | (Infeasible | Limit | Memout _) as other -> other
  in
  { r with Portfolio.verdict; time_s = Timer.elapsed t0 }

let solve ?solver ?platform ?budget ?seed ?verify ?analyze ts ~m =
  let r = run ?solver ?platform ?budget ?seed ?verify ?analyze ts ~m in
  (r.Portfolio.verdict, r.Portfolio.time_s)

(* The constrained system the static pass sees: the input itself, or its
   clone system for arbitrary deadlines — the reduction preserves
   feasibility, so facts about the clone system hold for the original. *)
let constrained ts = if Taskset.is_constrained ts then ts else Clone.cloned (Clone.transform ts)

let analyze ?work_budget ts ~m =
  let cts = constrained ts in
  (Analysis.analyze ?work_budget cts ~m, cts)

let feasible ?solver ?budget ts ~m =
  match fst (solve ?solver ?budget ts ~m) with
  | Feasible _ -> Some true
  | Infeasible -> Some false
  | Limit | Memout _ -> None

type min_processors_outcome = Minproc.min_processors_outcome =
  | Exact of int
  | Inconclusive of { first_limit : int; feasible : int option }
  | All_infeasible

let min_processors ?solver ?(budget_per_m = None) ?max_m ?(analyze = true) ts =
  let max_m = match max_m with Some v -> v | None -> Taskset.size ts in
  (* The analyzer's m-independent lower bound (computed once, on the
     constrained system) lets the scan skip candidate counts no schedule
     can use. *)
  let start = if analyze then Analysis.m_lower_bound (constrained ts) else 1 in
  let solve_m ~m =
    let budget = match budget_per_m with Some b -> b | None -> Timer.unlimited in
    match fst (solve ?solver ~budget ~analyze ts ~m) with
    | Feasible _ -> `Feasible
    | Infeasible -> `Infeasible
    | Limit | Memout _ -> `Undecided
  in
  Minproc.min_processors_feasible ~start ~solve:solve_m ts ~max_m

let min_processors_exn ?solver ?budget_per_m ?max_m ts =
  match min_processors ?solver ?budget_per_m ?max_m ts with
  | Exact m -> Some m
  | All_infeasible -> None
  | Inconclusive { first_limit; _ } ->
    invalid_arg
      (Printf.sprintf
         "Core.min_processors_exn: undecided at m=%d (raise the budget)" first_limit)

(* ------------------------------------------------------------------ *)
(* Typed top-level errors.

   The solver layers report bad input and resource exhaustion through a
   small set of exceptions; this is the one place that classifies them
   into values a CLI (or any embedding service) can turn into messages
   and exit codes instead of crash dumps. *)

type error =
  | Invalid_input of string
  | Overflow of string
  | All_arms_crashed of (string * string) list

let contains_overflow msg =
  let msg = String.lowercase_ascii msg in
  let needle = "overflow" in
  let nl = String.length needle and hl = String.length msg in
  let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
  go 0

let error_of_exn = function
  (* Hyperperiod overflow surfaces as [Intmath.Overflow] from raw lcm
     callers and as [Invalid_argument "...: hyperperiod overflow"] from
     [Taskset.of_tasks]; classify both as [Overflow]. *)
  | Prelude.Intmath.Overflow what -> Some (Overflow what)
  | Invalid_argument msg when contains_overflow msg -> Some (Overflow msg)
  | Invalid_argument msg -> Some (Invalid_input msg)
  (* A missing or unreadable input file ([Io.load_taskset], schedule CSVs)
     surfaces as a bare [Sys_error]; before this branch the CLI died with
     an uncaught exception instead of the stable invalid-input exit. *)
  | Sys_error msg -> Some (Invalid_input msg)
  | Portfolio.All_arms_crashed crashes -> Some (All_arms_crashed crashes)
  | _ -> None

let error_message = function
  | Invalid_input msg -> "invalid input: " ^ msg
  | Overflow what ->
    Printf.sprintf "integer overflow in %s (hyperperiod too large for this machine's int)" what
  | All_arms_crashed crashes ->
    Printf.sprintf "all %d portfolio arms crashed%s" (List.length crashes)
      (match crashes with
      | (name, exn) :: _ -> Printf.sprintf " (first: %s: %s)" name exn
      | [] -> "")

let error_exit_code = function
  | Invalid_input _ -> 3
  | Overflow _ -> 4
  | All_arms_crashed _ -> 5

let solve_result ?solver ?platform ?budget ?seed ?verify ?analyze ts ~m =
  match solve ?solver ?platform ?budget ?seed ?verify ?analyze ts ~m with
  | v -> Ok v
  | exception e -> (
    match error_of_exn e with Some err -> Error err | None -> raise e)
