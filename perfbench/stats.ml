(* Summary statistics for the benchmark's own samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [pct]% of
   the samples at or below it, i.e. rank ceil(pct·n/100), computed in
   integers so 95% of 200 is exactly rank 190.  [nan] on no samples. *)
let percentile ~pct xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let rank = Int.max 1 (((pct * n) + 99) / 100) in
    (sorted xs).(Int.min n rank - 1)
  end

let median xs = percentile ~pct:50 xs

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs = if Array.length xs = 0 then Float.nan else sum xs /. float_of_int (Array.length xs)

(* [part] as a percentage of [whole]; 0 when [whole] is 0. *)
let pct part whole = if whole = 0. then 0. else 100. *. part /. whole

let pct_int part whole = pct (float_of_int part) (float_of_int whole)
