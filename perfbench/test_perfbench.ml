(* Tests for the benchmark's own code: percentiles and seeded inputs. *)

open Perfbench

let check name ok = if not ok then failwith ("test_perfbench: " ^ name)

let test_percentiles () =
  (* 1..200 in a scrambled order: nearest rank ceil(p·n/100). *)
  let xs = Array.init 200 (fun i -> float_of_int (((i * 73) mod 200) + 1)) in
  check "p50 of 200" (Stats.percentile ~pct:50 xs = 100.);
  check "p95 of 200" (Stats.percentile ~pct:95 xs = 190.);
  check "p95 leaves 10 samples above" (List.length (List.filter (fun x -> x > 190.) (Array.to_list xs)) = 10);
  check "p100 is the max" (Stats.percentile ~pct:100 xs = 200.);
  check "p1 of 200" (Stats.percentile ~pct:1 xs = 2.);
  check "median of 1" (Stats.median [| 7. |] = 7.);
  check "no samples" (Float.is_nan (Stats.percentile ~pct:50 [||]));
  check "input untouched" (xs.(1) = 74.)

let instance_text (ts, m) = Rt_model.Taskset.to_string ts ^ Printf.sprintf " m=%d" m

let test_seeded_inputs () =
  List.iter
    (fun kind ->
      let a = Workload.instances kind ~suite:11 ~count:50 and b = Workload.instances kind ~suite:11 ~count:50 in
      check "same suite, same instances" (Array.map instance_text a = Array.map instance_text b);
      let c = Workload.instances kind ~suite:12 ~count:50 in
      check "other suite, other instances" (Array.map instance_text a <> Array.map instance_text c);
      let prefix = Workload.instances kind ~suite:11 ~count:20 in
      check "suite size does not change instances" (Array.map instance_text prefix = Array.sub (Array.map instance_text a) 0 20))
    Workload.all;
  check "same seed, same order" (Workload.order ~seed:3 ~pass:1 100 = Workload.order ~seed:3 ~pass:1 100);
  check "each pass its own order" (Workload.order ~seed:3 ~pass:1 100 <> Workload.order ~seed:3 ~pass:2 100);
  check "order is a permutation" (Array.for_all (fun b -> b) (let seen = Array.make 100 false in Array.iter (fun i -> seen.(i) <- true) (Workload.order ~seed:3 ~pass:1 100); seen));
  let lines s = Array.map (fun (r : Workload.request) -> r.Workload.line) s in
  let s1 = Workload.stream ~suite:2 ~seed:5 ~count:300 in
  check "same seed, same request lines" (lines s1 = lines (Workload.stream ~suite:2 ~seed:5 ~count:300));
  check "other seed, other request lines" (lines s1 <> lines (Workload.stream ~suite:2 ~seed:6 ~count:300));
  let s2 = Workload.stream ~suite:2 ~seed:6 ~count:300 in
  check "the seed only reorders repeats"
    (Array.for_all2 (fun (a : Workload.request) (b : Workload.request) -> a.Workload.repeat_of = b.Workload.repeat_of) s1 s2);
  let repeats = ref 0 in
  Array.iteri
    (fun i (r : Workload.request) ->
      match r.Workload.repeat_of with
      | None -> ()
      | Some j ->
        incr repeats;
        let src = s1.(j) in
        check "repeat distance 1..50" (i - j >= 1 && i - j <= Workload.max_repeat_distance);
        check "repeat is a reordering"
          (List.sort Stdlib.compare r.Workload.tuples = List.sort Stdlib.compare src.Workload.tuples
          && r.Workload.m = src.Workload.m))
    s1;
  check "a third repeat" (!repeats = 100 && Workload.repeat_count 58 = 19)

let () =
  test_percentiles ();
  test_seeded_inputs ();
  print_endline "test_perfbench: ok"
