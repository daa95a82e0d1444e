open Prelude
open Rt_model

module Domains = Domains
module Certificate = Certificate

type verdict =
  | Infeasible of Certificate.t
  | Trivially_feasible of Schedule.t
  | Pruned of Domains.t

type report = {
  verdict : verdict;
  m_lower : int;
  skipped : string list;
  time_s : float;
}

let default_work_budget = 10_000_000

let utilization_exceeds ts ~m =
  let num, den = Taskset.utilization_num_den ts in
  Intmath.exceeds_product num m den

(* ------------------------------------------------------------------ *)
(* Work budget: every window-based pass draws from a shared pool and, on
   exhaustion, records WHY it stopped instead of silently degrading.    *)

type budget = { mutable left : int; mutable notes : string list; wall : Timer.budget }

let wall_note = "analysis stopped early: wall budget exhausted"

(* The wall-clock poll: false, with the note recorded once, when the
   wall budget is spent or cancelled. *)
let wall_ok b =
  if Timer.cancelled b.wall || Timer.exceeded b.wall ~nodes:0 then begin
    if not (List.mem wall_note b.notes) then b.notes <- wall_note :: b.notes;
    false
  end
  else true

let spend b cost ~note =
  if not (wall_ok b) then false
  else if cost <= b.left then begin
    b.left <- b.left - cost;
    true
  end
  else begin
    b.notes <- note :: b.notes;
    false
  end

(* Cost of building and sweeping the window tables: one n·T slot table
   plus Σ (T/T_i)·D_i window cells. *)
let window_work ts =
  let t = Taskset.hyperperiod ts in
  let n = Taskset.size ts in
  let cells =
    Array.fold_left
      (fun acc (task : Task.t) -> acc + (t / task.period * task.deadline))
      0 (Taskset.tasks ts)
  in
  (n * t) + cells

(* ------------------------------------------------------------------ *)
(* Fixpoint state at a fixed m.  [allowed] mirrors the replay state of
   Certificate.validate: the analyzer records exactly the derivation steps
   it applies, so a validator replay reconstructs the same matrices.     *)

type fx = {
  ts : Taskset.t;
  m : int;
  n : int;
  horizon : int;
  windows : Windows.t;
  allowed : bool array array; (* [task].(slot), true only in-window *)
  allowed_count : int array; (* per global job *)
  forced : Bitset.t array; (* per slot *)
  forced_job : bool array; (* per global job *)
  saturated : bool array; (* per slot *)
  mutable blocked_cells : int;
  mutable steps_rev : Certificate.step list;
}

exception Contradiction of Certificate.step

let make_fx ts ~m windows =
  let n = Taskset.size ts in
  let horizon = Windows.horizon windows in
  let jobs = Windows.jobs windows in
  let allowed = Array.make_matrix n horizon false in
  Array.iter
    (fun (job : Windows.job) -> Array.iter (fun s -> allowed.(job.task).(s) <- true) job.slots)
    jobs;
  {
    ts;
    m;
    n;
    horizon;
    windows;
    allowed;
    allowed_count = Array.map (fun (job : Windows.job) -> Array.length job.slots) jobs;
    forced = Array.init horizon (fun _ -> Bitset.create n);
    forced_job = Array.make (Array.length jobs) false;
    saturated = Array.make horizon false;
    blocked_cells = 0;
    steps_rev = [];
  }

let emit fx step = fx.steps_rev <- step :: fx.steps_rev

let certificate fx terminal = { Certificate.m = fx.m; steps = List.rev (terminal :: fx.steps_rev) }

(* Laxity-zero forcing + slot saturation, iterated to a fixed point.
   Raises [Contradiction] with the terminal step on refutation. *)
let run_fixpoint fx =
  let jobs = Windows.jobs fx.windows in
  let jobq = Queue.create () in
  let slotq = Queue.create () in
  Array.iteri (fun g _ -> Queue.push g jobq) jobs;
  let process_job g =
    if not fx.forced_job.(g) then begin
      let job = jobs.(g) in
      let wcet = (Taskset.task fx.ts job.task).wcet in
      let c = fx.allowed_count.(g) in
      if c < wcet then
        raise (Contradiction (Certificate.Starved { task = job.task; k = job.index; allowed = c; wcet }))
      else if c = wcet then begin
        fx.forced_job.(g) <- true;
        emit fx (Certificate.Forced { task = job.task; k = job.index });
        Array.iter
          (fun s ->
            if fx.allowed.(job.task).(s) && not (Bitset.mem fx.forced.(s) job.task) then begin
              Bitset.add fx.forced.(s) job.task;
              Queue.push s slotq
            end)
          job.slots
      end
    end
  in
  let process_slot s =
    let c = Bitset.cardinal fx.forced.(s) in
    if c > fx.m then raise (Contradiction (Certificate.Slot_overload { time = s }))
    else if c = fx.m && not fx.saturated.(s) then begin
      fx.saturated.(s) <- true;
      emit fx (Certificate.Saturated { time = s });
      for i = 0 to fx.n - 1 do
        if fx.allowed.(i).(s) && not (Bitset.mem fx.forced.(s) i) then begin
          fx.allowed.(i).(s) <- false;
          fx.blocked_cells <- fx.blocked_cells + 1;
          let g = Windows.job_id_at fx.windows ~task:i ~time:s in
          fx.allowed_count.(g) <- fx.allowed_count.(g) - 1;
          Queue.push g jobq
        end
      done
    end
  in
  while not (Queue.is_empty jobq && Queue.is_empty slotq) do
    while not (Queue.is_empty jobq) do
      process_job (Queue.pop jobq)
    done;
    if not (Queue.is_empty slotq) then process_slot (Queue.pop slotq)
  done

(* ------------------------------------------------------------------ *)
(* m-independent lower bounds (computed on the pristine windows only:
   saturation-derived facts are conditional on the analyzed m, so they
   must not leak into the bound). *)

(* Max over slots of the number of laxity-zero tasks covering the slot:
   all of them are forced to run there on any number of processors. *)
let zero_laxity_bound ts windows =
  let horizon = Windows.horizon windows in
  let zl = Array.make horizon 0 in
  Array.iter
    (fun (job : Windows.job) ->
      let task = Taskset.task ts job.task in
      if task.wcet = task.deadline then Array.iter (fun s -> zl.(s) <- zl.(s) + 1) job.slots)
    (Windows.jobs windows);
  Array.fold_left Int.max 0 zl

(* Smallest m' whose hyperperiod supply Σ_t min(m', load t) covers the
   total demand; [n + 1] when even unlimited parallelism falls short. *)
let supply_bound ts windows =
  let load = Windows.slot_load windows in
  let n = Taskset.size ts in
  let demand = Taskset.total_demand ts in
  let counts = Array.make (n + 1) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) load;
  let rec search m' =
    if m' > n then n + 1
    else begin
      let supply = ref 0 in
      Array.iteri (fun l c -> supply := !supply + (c * Int.min m' l)) counts;
      if !supply >= demand then m' else search (m' + 1)
    end
  in
  search 1

(* ------------------------------------------------------------------ *)
(* Interval demand-bound sweep.  Candidate intervals are the cyclic
   [start, start+len) that start at a release instant and end at an
   absolute deadline (both folded mod T) — the only places where a job's
   forced contribution max(0, C − usable slots outside) changes.

   For a fixed start the sweep walks the slots start, start+1, … once,
   counting per job its usable slots [inside] the growing interval.  With
   slack = usable − C, the job's forced demand is max(0, inside − slack):
   it grows by exactly one each time [inside] passes the slack, so the
   demand of every interval is kept in O(1) per usable cell and read off
   at each deadline boundary — O(starts × (cells + T)) for the sweep.    *)

let boundary_points windows =
  let ts = Windows.taskset windows and horizon = Windows.horizon windows in
  let is_start = Bytes.make horizon '\000' and is_end = Bytes.make horizon '\000' in
  Array.iter
    (fun (job : Windows.job) ->
      let task = Taskset.task ts job.task in
      Bytes.set is_start (Intmath.imod job.release horizon) '\001';
      Bytes.set is_end (Intmath.imod (job.release + task.deadline) horizon) '\001')
    (Windows.jobs windows);
  let starts = ref [] in
  for s = horizon - 1 downto 0 do
    if Bytes.get is_start s = '\001' then starts := s :: !starts
  done;
  (!starts, is_end)

(* The sweep over the cells [usable task slot], whose per-job counts are
   [usable_count].  Priced whole before any table is built: it either runs
   to the end (bar the per-start wall poll) or is skipped with a note.
   Returns the max lower bound ⌈demand/len⌉ (at least 1) and, when
   [detect_m] is given, the first interval — lowest start, then lowest end
   — whose forced demand exceeds m·len. *)
let sweep windows budget ~name ~usable ~usable_count ?detect_m () =
  let horizon = Windows.horizon windows and jobs = Windows.jobs windows in
  let starts, is_end = boundary_points windows in
  let cells = Array.fold_left ( + ) 0 usable_count in
  let cost = List.length starts * (cells + horizon) in
  let note =
    Printf.sprintf "%s skipped: cost %d exceeds remaining work budget %d" name cost budget.left
  in
  let bound = ref 1 and hit = ref None in
  if spend budget cost ~note then begin
    (* Usable cells by slot, as job ids: slot s owns [first.(s), first.(s+1)). *)
    let first = Array.make (horizon + 1) 0 and cell_job = Array.make cells 0 in
    let each_cell f =
      Array.iteri
        (fun g (j : Windows.job) -> Array.iter (fun s -> if usable j.task s then f g s) j.slots)
        jobs
    in
    each_cell (fun _ s -> first.(s) <- first.(s) + 1);
    for s = 1 to horizon do
      first.(s) <- first.(s) + first.(s - 1)
    done;
    each_cell (fun g s ->
        first.(s) <- first.(s) - 1;
        cell_job.(first.(s)) <- g);
    let wcet (j : Windows.job) = (Taskset.task (Windows.taskset windows) j.task).wcet in
    let slack = Array.mapi (fun g j -> usable_count.(g) - wcet j) jobs in
    (* Jobs left with fewer usable slots than C owe the difference anywhere. *)
    let owed = Array.fold_left (fun acc sl -> acc + Int.max 0 (-sl)) 0 slack in
    let inside = Array.make (Array.length jobs) 0 in
    (* The longest interval whose supply m·len fits an int; a longer one
       supplies more than any demand. *)
    let len_cap = match detect_m with Some m -> max_int / m | None -> 0 in
    try
      List.iter
        (fun start ->
          if not (wall_ok budget) then raise Exit;
          Array.fill inside 0 (Array.length inside) 0;
          let demand = ref owed and found = ref None in
          for len = 1 to horizon - 1 do
            let s = (start + len - 1) mod horizon in
            for c = first.(s) to first.(s + 1) - 1 do
              let g = cell_job.(c) in
              if inside.(g) >= slack.(g) then incr demand;
              inside.(g) <- inside.(g) + 1
            done;
            let e = (s + 1) mod horizon in
            if Bytes.get is_end e = '\001' && !demand > 0 then begin
              bound := Int.max !bound (Intmath.cdiv !demand len);
              match (detect_m, !found) with
              | Some m, None when len <= len_cap && !demand > m * len ->
                found := Some (start, len, !demand)
              | Some m, Some (_, l, _)
                when len <= len_cap && !demand > m * len && e < (start + l) mod horizon ->
                found := Some (start, len, !demand)
              | _ -> ()
            end
          done;
          if !hit = None then hit := !found)
        starts
    with Exit -> ()
  end;
  (!bound, !hit)

let pristine_sweep windows budget ?detect_m () =
  let usable_count =
    Array.map (fun (j : Windows.job) -> Array.length j.slots) (Windows.jobs windows)
  in
  sweep windows budget ~name:"interval sweep" ~usable:(fun _ _ -> true) ~usable_count ?detect_m ()

let interval_sweep windows ~usable ~m =
  let count (j : Windows.job) =
    Array.fold_left (fun n s -> if usable j.task s then n + 1 else n) 0 j.slots
  in
  let budget = { left = max_int; notes = []; wall = Timer.unlimited } in
  sweep windows budget ~name:"interval sweep" ~usable
    ~usable_count:(Array.map count (Windows.jobs windows))
    ~detect_m:m ()

(* ------------------------------------------------------------------ *)
(* Post-fixpoint per-slot availability and supply.                      *)

let availability fx =
  let avail = Array.make fx.horizon 0 in
  for s = 0 to fx.horizon - 1 do
    for i = 0 to fx.n - 1 do
      if fx.allowed.(i).(s) then avail.(s) <- avail.(s) + 1
    done
  done;
  avail

let post_supply fx avail = Array.fold_left (fun acc a -> acc + Int.min fx.m a) 0 avail

(* ------------------------------------------------------------------ *)
(* Trivially-feasible pass: first-fit-decreasing-density partitioning with
   a per-processor EDF packing over an unrolled double hyperperiod (so
   wrapped windows are served in release order).  The witness is accepted
   only if every job is fully served — and re-checked by Verify before the
   verdict is trusted. *)

let try_partition fx budget =
  let ts = fx.ts and m = fx.m and horizon = fx.horizon in
  let jobs = Windows.jobs fx.windows in
  let cost = 2 * horizon * (Array.length jobs + fx.n) in
  if not (spend budget cost ~note:"partitioned-fit pass skipped: work budget exhausted") then
    None
  else begin
    let order = Array.init fx.n (fun i -> i) in
    Array.sort
      (fun a b ->
        let da = Task.density (Taskset.task ts a) and db = Task.density (Taskset.task ts b) in
        if da <> db then Float.compare db da else Int.compare a b)
      order;
    let bin_demand = Array.make m 0 in
    let assign = Array.make fx.n (-1) in
    let fits = ref true in
    Array.iter
      (fun i ->
        let task = Taskset.task ts i in
        let d = Taskset.jobs_per_hyperperiod ts i * task.wcet in
        let rec place j =
          if j >= m then fits := false
          else if bin_demand.(j) + d <= horizon then begin
            bin_demand.(j) <- bin_demand.(j) + d;
            assign.(i) <- j
          end
          else place (j + 1)
        in
        place 0)
      order;
    if not !fits then None
    else begin
      let rem = Array.map (fun (j : Windows.job) -> (Taskset.task ts j.task).wcet) jobs in
      let due =
        Array.map (fun (j : Windows.job) -> j.release + (Taskset.task ts j.task).deadline) jobs
      in
      (* EDF key (absolute deadline, task, index): job ids follow (task,
         index) order, so ties fall back to the id. *)
      let before a b = due.(a) < due.(b) || (due.(a) = due.(b) && a < b) in
      (* Each processor's jobs in release order. *)
      let by_release = Array.init (Array.length jobs) Fun.id in
      Array.stable_sort (fun a b -> Int.compare jobs.(a).release jobs.(b).release) by_release;
      let mine = Array.make m [] in
      for k = Array.length by_release - 1 downto 0 do
        let g = by_release.(k) in
        let p = assign.(jobs.(g).task) in
        mine.(p) <- g :: mine.(p)
      done;
      (* Binary min-heap of released jobs; finished and expired ones are
         dropped lazily from the top. *)
      let heap = Array.make (Array.length jobs) 0 and size = ref 0 in
      let swap i j =
        let x = heap.(i) in
        heap.(i) <- heap.(j);
        heap.(j) <- x
      in
      let rec up i =
        let parent = (i - 1) / 2 in
        if i > 0 && before heap.(i) heap.(parent) then begin
          swap i parent;
          up parent
        end
      in
      let rec down i =
        let l = (2 * i) + 1 in
        let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
        if c < !size && before heap.(c) heap.(i) then begin
          swap i c;
          down c
        end
      in
      let pending = ref [] in
      let rec release x =
        match !pending with
        | g :: rest when jobs.(g).release <= x ->
          pending := rest;
          heap.(!size) <- g;
          incr size;
          up (!size - 1);
          release x
        | _ -> ()
      in
      let sched = Schedule.create ~m ~horizon in
      for proc = 0 to m - 1 do
        pending := mine.(proc);
        size := 0;
        for x = 0 to (2 * horizon) - 1 do
          release x;
          while !size > 0 && (rem.(heap.(0)) = 0 || due.(heap.(0)) <= x) do
            decr size;
            heap.(0) <- heap.(!size);
            down 0
          done;
          let t = Intmath.imod x horizon in
          if !size > 0 && Schedule.get sched ~proc ~time:t = Schedule.idle then begin
            let g = heap.(0) in
            Schedule.set sched ~proc ~time:t jobs.(g).task;
            rem.(g) <- rem.(g) - 1
          end
        done
      done;
      if Array.for_all (fun r -> r = 0) rem && Verify.is_feasible ts sched then Some sched
      else None
    end
  end

(* ------------------------------------------------------------------ *)

let build_domains fx ~m_lower avail =
  let d = Domains.create ~n:fx.n ~m:fx.m ~horizon:fx.horizon in
  for s = 0 to fx.horizon - 1 do
    Bitset.iter (fun task -> Domains.force d ~task ~time:s) fx.forced.(s);
    if avail.(s) = 0 then Domains.mark_dead d ~time:s
  done;
  if fx.blocked_cells > 0 then begin
    let jobs = Windows.jobs fx.windows in
    Array.iter
      (fun (job : Windows.job) ->
        Array.iter
          (fun s -> if not (fx.allowed.(job.task).(s)) then Domains.block d ~task:job.task ~time:s)
          job.slots)
      jobs
  end;
  Domains.set_m_lower d m_lower;
  d

let check_args name ts ~m =
  if m < 1 then invalid_arg (name ^ ": m must be >= 1");
  if not (Taskset.is_constrained ts) then
    invalid_arg (name ^ ": arbitrary-deadline task set (reduce with Clone first)")

let analyze ?(work_budget = default_work_budget) ?(wall = Timer.unlimited) ts ~m =
  check_args "Analysis.analyze" ts ~m;
  let t0 = Timer.now () in
  let finish ~m_lower ~skipped verdict =
    { verdict; m_lower; skipped; time_s = Timer.now () -. t0 }
  in
  let num, den = Taskset.utilization_num_den ts in
  let u_bound = Intmath.cdiv num den in
  if Intmath.exceeds_product num m den then
    finish ~m_lower:u_bound ~skipped:[]
      (Infeasible { Certificate.m; steps = [ Certificate.Utilization { demand = num; supply = m * den } ] })
  else begin
    let budget = { left = work_budget; notes = []; wall } in
    let n = Taskset.size ts in
    let horizon = Taskset.hyperperiod ts in
    if
      not
        (spend budget (window_work ts)
           ~note:
             (Printf.sprintf
                "window passes skipped: instance cost %d exceeds work budget %d (n=%d, T=%d)"
                (window_work ts) work_budget n horizon))
    then
      (* Too large to inspect slot-by-slot: report the skip (the old
         slot_capacity_shortfall guard was silent here) and fall back to
         the utilization bound alone. *)
      finish ~m_lower:u_bound ~skipped:budget.notes
        (Pruned
           (let d = Domains.create ~n ~m ~horizon in
            Domains.set_m_lower d u_bound;
            d))
    else begin
      let windows = Windows.build ts in
      let fx = make_fx ts ~m windows in
      let m_low = ref u_bound in
      m_low := Int.max !m_low (zero_laxity_bound ts windows);
      m_low := Int.max !m_low (supply_bound ts windows);
      match run_fixpoint fx with
      | exception Contradiction terminal ->
        finish ~m_lower:!m_low ~skipped:budget.notes (Infeasible (certificate fx terminal))
      | () -> (
        let avail = availability fx in
        let cap = post_supply fx avail in
        let demand = Taskset.total_demand ts in
        if cap < demand then
          finish ~m_lower:!m_low ~skipped:budget.notes
            (Infeasible (certificate fx (Certificate.Supply_shortfall { demand; supply = cap })))
        else begin
          (* Pristine sweep: lower bounds always; direct detection doubles
             as the certificate source while no cell is blocked.  Once
             saturation has blocked cells, demand can only grow, so the
             post-fixpoint sweep subsumes the pristine detection. *)
          let detect_m = if fx.blocked_cells = 0 then Some m else None in
          let bound, pristine_hit = pristine_sweep windows budget ?detect_m () in
          m_low := Int.max !m_low bound;
          let hit =
            if fx.blocked_cells = 0 then pristine_hit
            else
              snd
                (sweep windows budget ~name:"post-fixpoint interval sweep"
                   ~usable:(fun task s -> fx.allowed.(task).(s))
                   ~usable_count:fx.allowed_count ~detect_m:m ())
          in
          match hit with
          | Some (start, len, demand) ->
            finish ~m_lower:!m_low ~skipped:budget.notes
              (Infeasible
                 (certificate fx
                    (Certificate.Interval_demand { start; len; demand; supply = m * len })))
          | None -> (
            match try_partition fx budget with
            | Some sched ->
              finish ~m_lower:!m_low ~skipped:budget.notes (Trivially_feasible sched)
            | None ->
              finish ~m_lower:!m_low ~skipped:budget.notes
                (Pruned (build_domains fx ~m_lower:!m_low avail)))
        end)
    end
  end

let m_lower_bound ?(work_budget = default_work_budget) ts =
  if not (Taskset.is_constrained ts) then
    invalid_arg "Analysis.m_lower_bound: arbitrary-deadline task set (reduce with Clone first)";
  let num, den = Taskset.utilization_num_den ts in
  let u_bound = Intmath.cdiv num den in
  let budget = { left = work_budget; notes = []; wall = Timer.unlimited } in
  if not (spend budget (window_work ts) ~note:"") then u_bound
  else begin
    let windows = Windows.build ts in
    let bound, _ = pristine_sweep windows budget () in
    Int.max
      (Int.max u_bound (zero_laxity_bound ts windows))
      (Int.max (supply_bound ts windows) bound)
  end
