open Prelude

exception Too_large of string

type var = {
  vid : int;
  vname : string;
  lo : int;  (* value represented by bit 0 of [dom] *)
  dom : Bitset.t;
  mutable saved_at : int;  (* deepest level whose trail holds a copy *)
  mutable wake : int list;  (* propagator ids watching this variable *)
  mutable weight : int;  (* failures of propagators watching this var (wdeg) *)
}

type trail_entry = { tvar : var; saved : Bitset.t; prev_saved_at : int }

type prop = { pid : int; pname : string; run : unit -> bool; scope : var list }

type t = {
  var_budget : int;
  mutable vars : var list;  (* reverse creation order *)
  mutable nvars : int;
  mutable props : prop list;
  mutable nprops : int;
  queue : int Queue.t;
  mutable prop_by_id : prop option array;
  mutable queued : bool array;  (* [pid] is in [queue]; grown with [prop_by_id] *)
  mutable trail : trail_entry list;
  mutable marks : int list;  (* trail depth at each level entry *)
  mutable trail_len : int;
  mutable level : int;
  mutable failed : bool;
  mutable propagations : int;
}

let create ?(var_budget = 2_000_000) () =
  {
    var_budget;
    vars = [];
    nvars = 0;
    props = [];
    nprops = 0;
    queue = Queue.create ();
    prop_by_id = Array.make 16 None;
    queued = Array.make 16 false;
    trail = [];
    marks = [];
    trail_len = 0;
    level = 0;
    failed = false;
    propagations = 0;
  }

let var_count t = t.nvars
let name v = v.vname
let vid v = v.vid
let level t = t.level
let failed t = t.failed
let propagation_count t = t.propagations

let new_var t ?name ~lo ~hi () =
  if lo > hi then invalid_arg "Engine.new_var: empty domain";
  if t.nvars >= t.var_budget then
    raise (Too_large (Printf.sprintf "variable budget (%d) exhausted" t.var_budget));
  let vname = match name with Some n -> n | None -> Printf.sprintf "x%d" t.nvars in
  let v =
    { vid = t.nvars; vname; lo; dom = Bitset.full (hi - lo + 1); saved_at = -1; wake = [];
      weight = 0 }
  in
  t.vars <- v :: t.vars;
  t.nvars <- t.nvars + 1;
  v

let new_var_of t ?name vals =
  match vals with
  | [] -> invalid_arg "Engine.new_var_of: empty domain"
  | first :: rest ->
    let lo = List.fold_left Int.min first rest in
    let hi = List.fold_left Int.max first rest in
    let v = new_var t ?name ~lo ~hi () in
    Bitset.remove_below v.dom 0;
    (* Start empty, then add the requested values. *)
    Bitset.remove_above v.dom (-1);
    List.iter (fun x -> Bitset.add v.dom (x - lo)) vals;
    v

let weight v = v.weight

let bump_scope p = List.iter (fun v -> v.weight <- v.weight + 1) p.scope

let vmin v = v.lo + Bitset.min_elt v.dom
let vmax v = v.lo + Bitset.max_elt v.dom
let size v = Bitset.cardinal v.dom
let mem v x = Bitset.mem v.dom (x - v.lo)
let is_assigned v = size v = 1
let value v = match Bitset.singleton_value v.dom with Some b -> Some (v.lo + b) | None -> None
let iter_values v f = Bitset.iter (fun b -> f (v.lo + b)) v.dom
let values v = List.map (fun b -> v.lo + b) (Bitset.elements v.dom)

let enqueue_watchers t v =
  List.iter
    (fun pid ->
      if not t.queued.(pid) then begin
        t.queued.(pid) <- true;
        Queue.add pid t.queue
      end)
    v.wake

let save_if_needed t v =
  if t.level > 0 && v.saved_at < t.level then begin
    t.trail <- { tvar = v; saved = Bitset.copy v.dom; prev_saved_at = v.saved_at } :: t.trail;
    t.trail_len <- t.trail_len + 1;
    v.saved_at <- t.level
  end

let after_change t v =
  if Bitset.is_empty v.dom then begin
    t.failed <- true;
    false
  end
  else begin
    enqueue_watchers t v;
    true
  end

let assign t v x =
  if not (mem v x) then begin
    t.failed <- true;
    false
  end
  else if size v = 1 then true
  else begin
    save_if_needed t v;
    let b = x - v.lo in
    Bitset.remove_below v.dom b;
    Bitset.remove_above v.dom b;
    after_change t v
  end

let remove t v x =
  if not (mem v x) then true
  else begin
    save_if_needed t v;
    Bitset.remove v.dom (x - v.lo);
    after_change t v
  end

let remove_below t v bound =
  if vmin v >= bound then true
  else begin
    save_if_needed t v;
    Bitset.remove_below v.dom (bound - v.lo);
    after_change t v
  end

let remove_above t v bound =
  if vmax v <= bound then true
  else begin
    save_if_needed t v;
    Bitset.remove_above v.dom (bound - v.lo);
    after_change t v
  end

let grow_prop_by_id t =
  let cap = Array.length t.prop_by_id in
  if t.nprops >= cap then begin
    let bigger = Array.make (2 * cap) None in
    Array.blit t.prop_by_id 0 bigger 0 cap;
    t.prop_by_id <- bigger;
    let queued = Array.make (2 * cap) false in
    Array.blit t.queued 0 queued 0 cap;
    t.queued <- queued
  end

let clear_queue t =
  Queue.clear t.queue;
  Array.fill t.queued 0 (Array.length t.queued) false

let propagate t =
  if t.failed then false
  else begin
    let ok = ref true in
    while !ok && not (Queue.is_empty t.queue) do
      let pid = Queue.pop t.queue in
      t.queued.(pid) <- false;
      match t.prop_by_id.(pid) with
      | None -> ()
      | Some p ->
        t.propagations <- t.propagations + 1;
        if not (p.run ()) then begin
          (* wdeg: credit the failure to the constraint's scope. *)
          bump_scope p;
          t.failed <- true;
          ok := false
        end
    done;
    if not !ok then clear_queue t;
    !ok
  end

let post t ~name ~wake ~propagate:run =
  grow_prop_by_id t;
  let p = { pid = t.nprops; pname = name; run; scope = wake } in
  ignore p.pname;
  t.props <- p :: t.props;
  t.nprops <- t.nprops + 1;
  t.prop_by_id.(p.pid) <- Some p;
  List.iter (fun v -> v.wake <- p.pid :: v.wake) wake;
  t.propagations <- t.propagations + 1;
  if t.failed then false
  else if not (run ()) then begin
    bump_scope p;
    t.failed <- true;
    clear_queue t;
    false
  end
  else propagate t

let push_level t =
  t.marks <- t.trail_len :: t.marks;
  t.level <- t.level + 1

let backtrack t =
  match t.marks with
  | [] -> invalid_arg "Engine.backtrack: at root level"
  | mark :: rest ->
    while t.trail_len > mark do
      match t.trail with
      | [] -> assert false
      | { tvar; saved; prev_saved_at } :: tl ->
        Bitset.blit ~src:saved ~dst:tvar.dom;
        tvar.saved_at <- prev_saved_at;
        t.trail <- tl;
        t.trail_len <- t.trail_len - 1
    done;
    t.marks <- rest;
    t.level <- t.level - 1;
    t.failed <- false;
    clear_queue t

let unassigned_count t =
  List.fold_left (fun acc v -> if is_assigned v then acc else acc + 1) 0 t.vars

let fold_vars t f init = List.fold_left f init (List.rev t.vars)
