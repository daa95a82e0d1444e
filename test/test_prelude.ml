(* Unit and property tests for the prelude: exact integer math, PRNG,
   bitsets, combinations, tables, accumulators. *)

open Prelude

let check = Alcotest.check
let qtest = Test_util.qtest

(* ------------------------------------------------------------------ *)
(* Intmath                                                             *)

let test_gcd_basics () =
  check Alcotest.int "gcd 12 18" 6 (Intmath.gcd 12 18);
  check Alcotest.int "gcd 0 5" 5 (Intmath.gcd 0 5);
  check Alcotest.int "gcd 5 0" 5 (Intmath.gcd 5 0);
  check Alcotest.int "gcd 0 0" 0 (Intmath.gcd 0 0);
  check Alcotest.int "gcd negatives" 6 (Intmath.gcd (-12) 18)

let test_lcm_basics () =
  check Alcotest.int "lcm 4 6" 12 (Intmath.lcm 4 6);
  check Alcotest.int "lcm 1..7" 420 (Intmath.lcm_list [ 1; 2; 3; 4; 5; 6; 7 ]);
  check Alcotest.int "lcm 1..15" 360360 (Intmath.lcm_list [ 1;2;3;4;5;6;7;8;9;10;11;12;13;14;15 ]);
  check Alcotest.int "lcm_list empty" 1 (Intmath.lcm_list []);
  check Alcotest.int "lcm 0" 0 (Intmath.lcm 0 9)

let test_lcm_overflow () =
  Alcotest.check_raises "overflow" (Intmath.Overflow "Intmath.lcm") (fun () ->
      ignore (Intmath.lcm max_int (max_int - 1)))

let prop_gcd_divides =
  qtest "gcd divides both"
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 100000))
    (fun (a, b) ->
      let g = Intmath.gcd a b in
      g > 0 && a mod g = 0 && b mod g = 0)

let prop_lcm_gcd =
  qtest "gcd * lcm = a * b"
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 10000))
    (fun (a, b) -> Intmath.gcd a b * Intmath.lcm a b = a * b)

let test_cdiv () =
  check Alcotest.int "cdiv 7 2" 4 (Intmath.cdiv 7 2);
  check Alcotest.int "cdiv 8 2" 4 (Intmath.cdiv 8 2);
  check Alcotest.int "cdiv 0 3" 0 (Intmath.cdiv 0 3);
  check Alcotest.int "cdiv 1 5" 1 (Intmath.cdiv 1 5);
  Alcotest.check_raises "cdiv by 0" (Invalid_argument "Intmath.cdiv: non-positive divisor")
    (fun () -> ignore (Intmath.cdiv 3 0))

let test_pow () =
  check Alcotest.int "2^10" 1024 (Intmath.pow 2 10);
  check Alcotest.int "7^0" 1 (Intmath.pow 7 0);
  check Alcotest.int "1^big" 1 (Intmath.pow 1 60);
  check Alcotest.int "0^3" 0 (Intmath.pow 0 3)

let test_imod () =
  check Alcotest.int "imod -1 12" 11 (Intmath.imod (-1) 12);
  check Alcotest.int "imod 13 12" 1 (Intmath.imod 13 12);
  check Alcotest.int "imod -12 12" 0 (Intmath.imod (-12) 12)

let test_luby () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  List.iteri
    (fun i want -> check Alcotest.int (Printf.sprintf "luby %d" (i + 1)) want (Intmath.luby (i + 1)))
    expected

let test_clamp () =
  check Alcotest.int "inside" 5 (Intmath.clamp ~lo:0 ~hi:10 5);
  check Alcotest.int "below" 0 (Intmath.clamp ~lo:0 ~hi:10 (-3));
  check Alcotest.int "above" 10 (Intmath.clamp ~lo:0 ~hi:10 42)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int a 1_000_000 = Prng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 8)

let prop_prng_range =
  qtest "int g b in [0,b)"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_in_range =
  qtest "in_range inclusive"
    QCheck2.Gen.(pair small_int (pair (int_range (-50) 50) (int_range 0 100)))
    (fun (seed, (lo, span)) ->
      let g = Prng.create ~seed in
      let v = Prng.in_range g ~lo ~hi:(lo + span) in
      v >= lo && v <= lo + span)

let test_prng_uniformity () =
  (* Coarse chi-squared-ish check: 10 buckets, 10k draws. *)
  let g = Prng.create ~seed:7 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d near 1000 (%d)" i c) true
        (c > 850 && c < 1150))
    buckets

let test_shuffle_permutation () =
  let g = Prng.create ~seed:3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_split_independent () =
  let g = Prng.create ~seed:5 in
  let child = Prng.split g in
  (* Child and parent continue without interfering deterministically. *)
  let c1 = Prng.int child 1000 and p1 = Prng.int g 1000 in
  let g' = Prng.create ~seed:5 in
  let child' = Prng.split g' in
  check Alcotest.int "child reproducible" c1 (Prng.int child' 1000);
  check Alcotest.int "parent reproducible" p1 (Prng.int g' 1000)

let test_float_range () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)

let ref_of_list l = List.sort_uniq compare l

let prop_bitset_model =
  (* Apply a random op sequence; compare against a sorted-list model. *)
  let open QCheck2.Gen in
  let op = int_range 0 199 >>= fun v -> int_range 0 3 >>= fun k -> return (k, v) in
  qtest ~count:200 "bitset matches reference model"
    (list_size (int_range 0 60) op)
    (fun ops ->
      let set = Prelude.Bitset.create 200 in
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          match k with
          | 0 ->
            Prelude.Bitset.add set v;
            model := ref_of_list (v :: !model)
          | 1 ->
            Prelude.Bitset.remove set v;
            model := List.filter (fun x -> x <> v) !model
          | 2 -> Prelude.Bitset.remove_below set v;
            model := List.filter (fun x -> x >= v) !model
          | _ -> Prelude.Bitset.remove_above set v;
            model := List.filter (fun x -> x <= v) !model)
        ops;
      Prelude.Bitset.elements set = !model
      && Prelude.Bitset.cardinal set = List.length !model
      && (match !model with
         | [] -> Prelude.Bitset.is_empty set
         | first :: _ ->
           Prelude.Bitset.min_elt set = first
           && Prelude.Bitset.max_elt set = List.nth !model (List.length !model - 1)))

let test_bitset_full () =
  let s = Prelude.Bitset.full 67 in
  check Alcotest.int "cardinal" 67 (Prelude.Bitset.cardinal s);
  check Alcotest.int "min" 0 (Prelude.Bitset.min_elt s);
  check Alcotest.int "max" 66 (Prelude.Bitset.max_elt s);
  Alcotest.(check bool) "no 67" false (Prelude.Bitset.mem s 67)

let test_bitset_next_from () =
  let s = Prelude.Bitset.create 128 in
  List.iter (Prelude.Bitset.add s) [ 3; 64; 100 ];
  check Alcotest.int "from 0" 3 (Prelude.Bitset.next_from s 0);
  check Alcotest.int "from 3" 3 (Prelude.Bitset.next_from s 3);
  check Alcotest.int "from 4" 64 (Prelude.Bitset.next_from s 4);
  check Alcotest.int "from 65" 100 (Prelude.Bitset.next_from s 65);
  Alcotest.check_raises "from 101" Not_found (fun () ->
      ignore (Prelude.Bitset.next_from s 101))

let test_bitset_blit_clear () =
  let a = Prelude.Bitset.full 100 and b = Prelude.Bitset.create 100 in
  Prelude.Bitset.blit ~src:a ~dst:b;
  Alcotest.(check bool) "equal after blit" true (Prelude.Bitset.equal a b);
  Prelude.Bitset.clear b;
  Alcotest.(check bool) "empty after clear" true (Prelude.Bitset.is_empty b)

let test_bitset_singleton () =
  let s = Prelude.Bitset.create 10 in
  Alcotest.(check (option int)) "empty" None (Prelude.Bitset.singleton_value s);
  Prelude.Bitset.add s 4;
  Alcotest.(check (option int)) "singleton" (Some 4) (Prelude.Bitset.singleton_value s);
  Prelude.Bitset.add s 7;
  Alcotest.(check (option int)) "pair" None (Prelude.Bitset.singleton_value s)

(* ------------------------------------------------------------------ *)
(* Combi                                                               *)

let test_combi_exhaustive () =
  let seen = ref [] in
  Prelude.Combi.iter ~n:5 ~k:3 (fun c -> seen := Array.to_list c :: !seen);
  let seen = List.rev !seen in
  check Alcotest.int "C(5,3)" 10 (List.length seen);
  check Alcotest.int "count agrees" 10 (Prelude.Combi.count ~n:5 ~k:3);
  (* Lexicographic order. *)
  Alcotest.(check (list (list int))) "prefix"
    [ [ 0; 1; 2 ]; [ 0; 1; 3 ]; [ 0; 1; 4 ]; [ 0; 2; 3 ] ]
    [ List.nth seen 0; List.nth seen 1; List.nth seen 2; List.nth seen 3 ]

let test_combi_edge () =
  Alcotest.(check (option (array int))) "k=0" (Some [||]) (Prelude.Combi.first ~n:4 ~k:0);
  Alcotest.(check (option (array int))) "k>n" None (Prelude.Combi.first ~n:2 ~k:3);
  check Alcotest.int "count k>n" 0 (Prelude.Combi.count ~n:2 ~k:3);
  check Alcotest.int "count k=n" 1 (Prelude.Combi.count ~n:4 ~k:4)

let prop_combi_count =
  qtest "iter visits count strictly-increasing combos"
    QCheck2.Gen.(pair (int_range 0 8) (int_range 0 8))
    (fun (n, k) ->
      let visits = ref 0 in
      let well_formed = ref true in
      Prelude.Combi.iter ~n ~k (fun c ->
          incr visits;
          if Array.length c <> k then well_formed := false;
          Array.iteri
            (fun i v ->
              if v < 0 || v >= n then well_formed := false;
              if i > 0 && c.(i - 1) >= v then well_formed := false)
            c);
      !well_formed && !visits = Prelude.Combi.count ~n ~k)

let prop_combi_next_k_matches_next =
  (* [next_k] over a longer, reused buffer must trace exactly the same
     combination sequence as [next] over an exact-size array. *)
  qtest "next_k on an oversized buffer = next on an exact one"
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 7))
    (fun (n, k) ->
      if k > n then true
      else begin
        let buf = Array.make (max 1 (k + 3)) 0 in
        for i = 0 to k - 1 do
          buf.(i) <- i
        done;
        let exact = Array.init k Fun.id in
        let ok = ref true in
        let continue_ = ref true in
        while !continue_ do
          for i = 0 to k - 1 do
            if buf.(i) <> exact.(i) then ok := false
          done;
          let a = Prelude.Combi.next_k ~n ~k buf in
          let b = k > 0 && Prelude.Combi.next ~n exact in
          if a <> b then ok := false;
          continue_ := a && b && !ok
        done;
        !ok
      end)

(* ------------------------------------------------------------------ *)
(* Ibits                                                               *)

let test_ibits_lowest_bit () =
  (* Regression: the De Bruijn index computation once dropped parentheses
     around the 32-bit truncation ([lsr] binds tighter than [land]),
     returning garbage indices for most words. *)
  for i = 0 to 31 do
    check Alcotest.int
      (Printf.sprintf "bit %d" i)
      i
      (Prelude.Ibits.lowest_bit_index (1 lsl i))
  done;
  check Alcotest.int "composite word" 3 (Prelude.Ibits.lowest_bit_index 0b11011000)

let test_ibits_basics () =
  let s = Prelude.Ibits.create 70 in
  Alcotest.(check bool) "fresh is empty" true (Prelude.Ibits.is_empty s);
  List.iter (Prelude.Ibits.set s) [ 0; 31; 32; 69 ];
  Alcotest.(check (list int)) "elements" [ 0; 31; 32; 69 ] (Prelude.Ibits.elements s);
  check Alcotest.int "popcount" 4 (Prelude.Ibits.popcount s);
  Alcotest.(check bool) "mem 31" true (Prelude.Ibits.mem s 31);
  Alcotest.(check bool) "mem 33" false (Prelude.Ibits.mem s 33);
  Prelude.Ibits.unset s 31;
  Alcotest.(check (list int)) "after unset" [ 0; 32; 69 ] (Prelude.Ibits.elements s);
  Prelude.Ibits.clear s;
  Alcotest.(check bool) "cleared" true (Prelude.Ibits.is_empty s)

let test_ibits_setops () =
  let a = Prelude.Ibits.create 64 and b = Prelude.Ibits.create 64 in
  let dst = Prelude.Ibits.create 64 in
  List.iter (Prelude.Ibits.set a) [ 1; 5; 40; 63 ];
  List.iter (Prelude.Ibits.set b) [ 5; 40; 41 ];
  Prelude.Ibits.inter_into ~dst a b;
  Alcotest.(check (list int)) "inter" [ 5; 40 ] (Prelude.Ibits.elements dst);
  Prelude.Ibits.diff_into ~dst a b;
  Alcotest.(check (list int)) "diff" [ 1; 63 ] (Prelude.Ibits.elements dst);
  Prelude.Ibits.copy_into ~src:a ~dst;
  Alcotest.(check (list int)) "copy" [ 1; 5; 40; 63 ] (Prelude.Ibits.elements dst)

let prop_ibits_model =
  (* Random operation trace against a sorted-list model, mirroring the
     [Bitset] model test. *)
  qtest "ibits agrees with a reference model"
    QCheck2.Gen.(list_size (return 120) (pair (int_range 0 2) (int_range 0 199)))
    (fun ops ->
      let set = Prelude.Ibits.create 200 in
      let model = ref [] in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
            Prelude.Ibits.set set v;
            if not (List.mem v !model) then model := List.sort Int.compare (v :: !model)
          | 1 ->
            Prelude.Ibits.unset set v;
            model := List.filter (fun x -> x <> v) !model
          | _ -> if Prelude.Ibits.mem set v <> List.mem v !model then model := [ -1 ])
        ops;
      Prelude.Ibits.elements set = !model
      && Prelude.Ibits.popcount set = List.length !model
      && Prelude.Ibits.fold (fun acc _ -> acc + 1) 0 set = List.length !model
      && Prelude.Ibits.is_empty set = (!model = []))

(* ------------------------------------------------------------------ *)
(* Ascii_table, Welford, Timer                                          *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_ascii_table () =
  let t = Prelude.Ascii_table.create ~headers:[ "a"; "bb" ] in
  Prelude.Ascii_table.add_row t [ "1"; "22" ];
  Prelude.Ascii_table.add_sep t;
  Prelude.Ascii_table.add_row t [ "333"; "4" ];
  let out = Prelude.Ascii_table.render t in
  Alcotest.(check bool) "contains header" true (contains out " a ");
  Alcotest.(check bool) "contains wide cell" true (contains out "333");
  Alcotest.check_raises "arity" (Invalid_argument "Ascii_table.add_row") (fun () ->
      Prelude.Ascii_table.add_row t [ "only one" ])

let test_welford () =
  let w = Prelude.Welford.create () in
  List.iter (Prelude.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (Prelude.Welford.count w);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Prelude.Welford.mean w);
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Prelude.Welford.variance w);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Prelude.Welford.min w);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Prelude.Welford.max w)

let test_prng_copy () =
  let a = Prng.create ~seed:13 in
  ignore (Prng.int a 100);
  let b = Prng.copy a in
  for _ = 1 to 20 do
    check Alcotest.int "copies coincide" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_welford_degenerate () =
  let w = Welford.create () in
  Alcotest.(check (float 0.)) "empty mean" 0. (Welford.mean w);
  Alcotest.(check (float 0.)) "empty variance" 0. (Welford.variance w);
  (* No observations: nan, not the +/-infinity initializers. *)
  Alcotest.(check bool) "empty min is nan" true (Float.is_nan (Welford.min w));
  Alcotest.(check bool) "empty max is nan" true (Float.is_nan (Welford.max w));
  Welford.add w 7.;
  Alcotest.(check (float 0.)) "single mean" 7. (Welford.mean w);
  Alcotest.(check (float 0.)) "single variance" 0. (Welford.variance w);
  Alcotest.(check (float 0.)) "single min" 7. (Welford.min w);
  Alcotest.(check (float 0.)) "single max" 7. (Welford.max w)

let test_pow_overflow () =
  Alcotest.(check bool) "2^80 overflows" true
    (try ignore (Intmath.pow 2 80); false with Intmath.Overflow _ -> true);
  Alcotest.check_raises "negative exponent" (Invalid_argument "Intmath.pow: negative exponent")
    (fun () -> ignore (Intmath.pow 2 (-1)))

let test_budget () =
  let b = Timer.budget ~nodes:100 () in
  Alcotest.(check bool) "below" false (Timer.exceeded b ~nodes:99);
  Alcotest.(check bool) "at" true (Timer.exceeded b ~nodes:100);
  let b2 = Timer.budget ~wall_s:3600. () in
  Alcotest.(check bool) "time far away" false (Timer.exceeded b2 ~nodes:0);
  Alcotest.(check bool) "unlimited" false (Timer.exceeded Timer.unlimited ~nodes:max_int)

let test_budget_cancel () =
  let b = Timer.budget ~wall_s:3600. () in
  Alcotest.(check bool) "fresh" false (Timer.cancelled b);
  Timer.cancel b;
  Alcotest.(check bool) "cancelled" true (Timer.cancelled b);
  Alcotest.(check bool) "exceeded once cancelled" true (Timer.exceeded b ~nodes:0);
  (* with_stop shares one flag across budgets. *)
  let stop = Atomic.make false in
  let a1 = Timer.with_stop (Timer.budget ~wall_s:3600. ()) stop in
  let a2 = Timer.with_stop (Timer.budget ~nodes:1_000_000 ()) stop in
  Alcotest.(check bool) "arm 1 fresh" false (Timer.cancelled a1);
  Timer.cancel a2;
  Alcotest.(check bool) "arm 1 sees arm 2's cancel" true (Timer.cancelled a1);
  (* The shared unlimited budget is not cancellable. *)
  Timer.cancel Timer.unlimited;
  Alcotest.(check bool) "unlimited immune" false (Timer.cancelled Timer.unlimited)

(* [with_stop] must compose: installing a new flag demotes the previous one
   to a watched flag, it does not disconnect it.  This was the portfolio
   cancellation bug — cancelling the caller's budget was never observed
   after the race swapped in its internal stop flag. *)
let test_with_stop_composes () =
  let outer = Timer.budget ~wall_s:3600. () in
  let inner = Timer.with_stop outer (Atomic.make false) in
  Alcotest.(check bool) "inner fresh" false (Timer.cancelled inner);
  Timer.cancel outer;
  Alcotest.(check bool) "inner sees outer cancel" true (Timer.cancelled inner);
  (* Downward only: cancelling the derived budget must not cancel the
     caller's. *)
  let outer2 = Timer.budget ~wall_s:3600. () in
  let inner2 = Timer.with_stop outer2 (Atomic.make false) in
  Timer.cancel inner2;
  Alcotest.(check bool) "inner2 cancelled" true (Timer.cancelled inner2);
  Alcotest.(check bool) "outer2 untouched" false (Timer.cancelled outer2);
  (* Two levels: outer -> mid -> leaf. *)
  let mid = Timer.with_stop outer2 (Atomic.make false) in
  let leaf = Timer.with_stop mid (Atomic.make false) in
  Timer.cancel outer2;
  Alcotest.(check bool) "leaf sees root cancel through two levels" true (Timer.cancelled leaf)

(* [Timer.sub] derives a child with fresh limits that still observes every
   ancestor flag (the portfolio analyzer arm). *)
let test_sub_budget () =
  let parent = Timer.budget ~wall_s:3600. () in
  let child = Timer.sub ~wall_s:1800. parent in
  Alcotest.(check bool) "child fresh" false (Timer.cancelled child);
  Timer.cancel parent;
  Alcotest.(check bool) "child sees parent cancel" true (Timer.cancelled parent);
  Alcotest.(check bool) "child cancelled via parent" true (Timer.cancelled child);
  (* And not the other way around. *)
  let parent2 = Timer.budget ~wall_s:3600. () in
  let child2 = Timer.sub ~nodes:10 parent2 in
  Timer.cancel child2;
  Alcotest.(check bool) "parent2 untouched" false (Timer.cancelled parent2);
  (* A child of a stop-flagged budget (race arm) still sees the flag. *)
  let stop = Atomic.make false in
  let arm = Timer.with_stop (Timer.budget ~wall_s:3600. ()) stop in
  let grandchild = Timer.sub ~wall_s:1. arm in
  Atomic.set stop true;
  Alcotest.(check bool) "grandchild sees the race flag" true (Timer.cancelled grandchild);
  (* Fresh node limits: the child's node budget is its own. *)
  let p3 = Timer.budget ~nodes:100 () in
  let c3 = Timer.sub ~nodes:10 p3 in
  Alcotest.(check bool) "child node limit" true (Timer.exceeded c3 ~nodes:10);
  Alcotest.(check bool) "parent node limit unchanged" false (Timer.exceeded p3 ~nodes:10)

(* ------------------------------------------------------------------ *)
(* Deque (Chase-Lev work-stealing)                                     *)

(* Sequential refinement: against a plain list model the deque is exact —
   [push]/[pop] act on the newest end, [steal] takes the oldest, and with
   no contention a steal of a non-empty deque never fails. *)
let prop_deque_model =
  qtest "deque matches list model (sequential)"
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 3))
    (fun ops ->
      let d = Deque.create ~capacity:16 () in
      let model = ref [] in
      (* head = newest *)
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 | 1 ->
            incr counter;
            Deque.push d !counter;
            model := !counter :: !model;
            true
          | 2 -> (
            match (Deque.pop d, !model) with
            | Some x, y :: rest when x = y ->
              model := rest;
              true
            | None, [] -> true
            | _ -> false)
          | _ -> (
            match (Deque.steal d, List.rev !model) with
            | Some x, y :: rest when x = y ->
              model := List.rev rest;
              true
            | None, [] -> true
            | _ -> false))
        ops
      && Deque.size d = List.length !model)

let test_deque_steal_fifo () =
  let d = Deque.create () in
  for i = 1 to 10 do
    Deque.push d i
  done;
  for i = 1 to 10 do
    check Alcotest.(option int) "steal takes the oldest" (Some i) (Deque.steal d)
  done;
  check Alcotest.(option int) "empty" None (Deque.steal d)

let test_deque_grow () =
  (* Push far past the initial capacity: growth must preserve both the
     contents and the LIFO pop order. *)
  let d = Deque.create ~capacity:16 () in
  for i = 0 to 999 do
    Deque.push d i
  done;
  check Alcotest.int "size after growth" 1000 (Deque.size d);
  for i = 999 downto 0 do
    check Alcotest.(option int) "pop order preserved" (Some i) (Deque.pop d)
  done;
  check Alcotest.(option int) "drained" None (Deque.pop d)

(* The linearizability smoke test: one owner pushing and popping, two
   thieves stealing concurrently.  Whatever the interleaving, every
   pushed item must surface exactly once across the three actors — a
   double-take or a lost element is exactly the class of bug a Chase-Lev
   implementation gets wrong. *)
let test_deque_concurrent () =
  let n = 20000 in
  let d = Deque.create ~capacity:16 () in
  let stop = Atomic.make false in
  let stolen = Array.make 2 [] in
  let thieves =
    Array.init 2 (fun t ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            let rec drain () =
              match Deque.steal d with
              | Some x ->
                acc := x :: !acc;
                drain ()
              | None -> ()
            in
            while not (Atomic.get stop) do
              drain ();
              Domain.cpu_relax ()
            done;
            drain ();
            stolen.(t) <- !acc))
  in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Deque.push d i;
    if i land 3 = 0 then
      match Deque.pop d with Some x -> popped := x :: !popped | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  let all = !popped @ stolen.(0) @ stolen.(1) in
  check Alcotest.int "every item surfaced exactly once" n (List.length all);
  List.iteri
    (fun i x -> if i <> x then Alcotest.failf "item %d surfaced as %d" i x)
    (List.sort Int.compare all)

(* ------------------------------------------------------------------ *)
(* Arena (bump allocator) and Epoch_dict (O(1)-clear dictionary)       *)

let test_arena_reset_reclaims () =
  let a = Arena.create ~capacity:16 () in
  let o1 = Arena.alloc a 8 in
  check Alcotest.int "first block at offset 0" 0 o1;
  for i = 0 to 7 do
    Arena.set a (o1 + i) (100 + i)
  done;
  (* Growth past the initial capacity must preserve earlier blocks. *)
  let o2 = Arena.alloc a 64 in
  check Alcotest.int "second block follows the first" 8 o2;
  for i = 0 to 7 do
    check Alcotest.int "contents survive growth" (100 + i) (Arena.get a (o1 + i))
  done;
  check Alcotest.int "used counts both blocks" 72 (Arena.used a);
  Alcotest.(check bool) "capacity grew" true (Arena.capacity a >= 72);
  let e = Arena.epoch a in
  Arena.reset a;
  check Alcotest.int "reset reclaims everything" 0 (Arena.used a);
  check Alcotest.int "reset bumps the epoch" (e + 1) (Arena.epoch a);
  (* The reclaimed space is really reused: the next alloc lands at 0. *)
  check Alcotest.int "post-reset alloc reuses offset 0" 0 (Arena.alloc a 4)

let test_arena_epoch_guards_stale_offsets () =
  (* The use-after-reset discipline from the interface: a client holding
     (offset, epoch) must detect that a reset invalidated the offset —
     this is exactly how the nogood store guards its rem vectors. *)
  let a = Arena.create ~capacity:16 () in
  let off = Arena.alloc a 4 in
  Arena.set a off 42;
  let stamp = Arena.epoch a in
  Alcotest.(check bool) "live offset passes the epoch check" true (Arena.epoch a = stamp);
  Arena.reset a;
  Alcotest.(check bool) "stale offset fails the epoch check" false (Arena.epoch a = stamp);
  (* truncate rewinds without bumping: offsets below the mark stay valid. *)
  let o1 = Arena.alloc a 4 in
  Arena.set a o1 7;
  let _o2 = Arena.alloc a 4 in
  let e = Arena.epoch a in
  Arena.truncate a 4;
  check Alcotest.int "truncate rewinds used" 4 (Arena.used a);
  check Alcotest.int "truncate keeps the epoch" e (Arena.epoch a);
  check Alcotest.int "survivor block readable" 7 (Arena.get a o1);
  Alcotest.check_raises "negative alloc rejected"
    (Invalid_argument "Arena.alloc: negative size") (fun () -> ignore (Arena.alloc a (-1)))

let prop_arena_blocks_disjoint =
  (* Allocation is a bump cursor: blocks are adjacent, disjoint, and
     writes through one block never alias another. *)
  qtest "arena blocks are disjoint and ordered"
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 17))
    (fun sizes ->
      let a = Arena.create ~capacity:16 () in
      let offs = List.map (fun n -> (Arena.alloc a n, n)) sizes in
      let rec adjacent = function
        | (o1, n1) :: ((o2, _) :: _ as rest) -> o2 = o1 + n1 && adjacent rest
        | [ (o, n) ] -> o + n = Arena.used a
        | [] -> Arena.used a = 0
      in
      List.iteri (fun i (o, n) -> if n > 0 then Arena.set a o (i + 1)) offs;
      adjacent offs
      && List.for_all
           (fun (i, (o, n)) -> n = 0 || Arena.get a o = i + 1)
           (List.mapi (fun i b -> (i, b)) offs))

let prop_epoch_dict_model =
  (* Sequential refinement against Hashtbl: set/clear/find/length agree
     on every op sequence, across growth and repeated O(1) clears. *)
  qtest "epoch_dict matches reference map"
    QCheck2.Gen.(
      list_size (int_range 0 200) (triple (int_range 0 5) (int_range (-25) 25) (int_range 0 99)))
    (fun ops ->
      let d = Epoch_dict.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.for_all
        (fun (op, k, v) ->
          match op with
          | 0 ->
            Epoch_dict.clear d;
            Hashtbl.reset h;
            true
          | 1 | 2 | 3 ->
            Epoch_dict.set d k v;
            Hashtbl.replace h k v;
            true
          | _ ->
            Epoch_dict.find d k = Hashtbl.find_opt h k
            && Epoch_dict.get d ~default:(-1) k
               = Option.value ~default:(-1) (Hashtbl.find_opt h k)
            && Epoch_dict.length d = Hashtbl.length h)
        ops)

let test_epoch_dict_clear_is_epoch_bump () =
  let d = Epoch_dict.create ~capacity:4 () in
  for k = 0 to 99 do
    Epoch_dict.set d k (k * k)
  done;
  check Alcotest.int "all bindings live" 100 (Epoch_dict.length d);
  let e = Epoch_dict.epoch d in
  Epoch_dict.clear d;
  check Alcotest.int "clear bumps the epoch" (e + 1) (Epoch_dict.epoch d);
  check Alcotest.int "clear empties the table" 0 (Epoch_dict.length d);
  check Alcotest.(option int) "stale binding invisible" None (Epoch_dict.find d 7);
  (* Rebinding after the clear is fully independent of the old epoch. *)
  Epoch_dict.set d 7 1;
  check Alcotest.(option int) "rebind visible" (Some 1) (Epoch_dict.find d 7);
  check Alcotest.int "one live binding" 1 (Epoch_dict.length d)

let () =
  Alcotest.run "prelude"
    [
      ( "intmath",
        [
          Alcotest.test_case "gcd basics" `Quick test_gcd_basics;
          Alcotest.test_case "lcm basics" `Quick test_lcm_basics;
          Alcotest.test_case "lcm overflow" `Quick test_lcm_overflow;
          Alcotest.test_case "cdiv" `Quick test_cdiv;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "imod" `Quick test_imod;
          Alcotest.test_case "luby" `Quick test_luby;
          Alcotest.test_case "clamp" `Quick test_clamp;
          prop_gcd_divides;
          prop_lcm_gcd;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "float range" `Quick test_float_range;
          prop_prng_range;
          prop_in_range;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "full" `Quick test_bitset_full;
          Alcotest.test_case "next_from" `Quick test_bitset_next_from;
          Alcotest.test_case "blit/clear" `Quick test_bitset_blit_clear;
          Alcotest.test_case "singleton" `Quick test_bitset_singleton;
          prop_bitset_model;
        ] );
      ( "combi",
        [
          Alcotest.test_case "exhaustive C(5,3)" `Quick test_combi_exhaustive;
          Alcotest.test_case "edge cases" `Quick test_combi_edge;
          prop_combi_count;
          prop_combi_next_k_matches_next;
        ] );
      ( "ibits",
        [
          Alcotest.test_case "lowest bit index" `Quick test_ibits_lowest_bit;
          Alcotest.test_case "basics" `Quick test_ibits_basics;
          Alcotest.test_case "set operations" `Quick test_ibits_setops;
          prop_ibits_model;
        ] );
      ( "deque",
        [
          Alcotest.test_case "steal is FIFO" `Quick test_deque_steal_fifo;
          Alcotest.test_case "growth preserves order" `Quick test_deque_grow;
          Alcotest.test_case "concurrent owner + thieves" `Quick test_deque_concurrent;
          prop_deque_model;
        ] );
      ( "arena/epoch_dict",
        [
          Alcotest.test_case "reset reclaims" `Quick test_arena_reset_reclaims;
          Alcotest.test_case "epoch guards stale offsets" `Quick
            test_arena_epoch_guards_stale_offsets;
          Alcotest.test_case "clear is an epoch bump" `Quick test_epoch_dict_clear_is_epoch_bump;
          prop_arena_blocks_disjoint;
          prop_epoch_dict_model;
        ] );
      ( "misc",
        [
          Alcotest.test_case "ascii table" `Quick test_ascii_table;
          Alcotest.test_case "welford" `Quick test_welford;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "budget cancel" `Quick test_budget_cancel;
          Alcotest.test_case "with_stop composes" `Quick test_with_stop_composes;
          Alcotest.test_case "sub budget" `Quick test_sub_budget;
          Alcotest.test_case "prng copy" `Quick test_prng_copy;
          Alcotest.test_case "welford degenerate" `Quick test_welford_degenerate;
          Alcotest.test_case "pow overflow" `Quick test_pow_overflow;
        ] );
    ]
