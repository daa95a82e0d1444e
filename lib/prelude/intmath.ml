exception Overflow of string

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let mul_check a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then raise (Overflow "Intmath.lcm") else p

let lcm a b =
  let a = abs a and b = abs b in
  if a = 0 || b = 0 then 0 else mul_check (a / gcd a b) b

let lcm_list l = List.fold_left lcm 1 l

let cdiv a b =
  if b <= 0 then invalid_arg "Intmath.cdiv: non-positive divisor"
  else if a <= 0 then 0
  else (a + b - 1) / b

let pow b e =
  if e < 0 then invalid_arg "Intmath.pow: negative exponent";
  (* Square-and-multiply; the guard on [e = 1] avoids a spurious overflow in
     the final squaring whose result would be discarded. *)
  let rec go acc b e =
    if e = 0 then acc
    else if e = 1 then mul_check acc b
    else if e land 1 = 1 then go (mul_check acc b) (mul_check b b) (e asr 1)
    else go acc (mul_check b b) (e asr 1)
  in
  go 1 b e

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x
let exceeds_product a b c = b <= max_int / c && a > b * c
let sum = List.fold_left ( + ) 0

let imod a b =
  if b <= 0 then invalid_arg "Intmath.imod: non-positive modulus"
  else
    let r = a mod b in
    if r < 0 then r + b else r

let rec luby i =
  let rec pow2m1 k = if (1 lsl k) - 1 >= i then k else pow2m1 (k + 1) in
  let k = pow2m1 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1) else luby (i - (1 lsl (k - 1)) + 1)
