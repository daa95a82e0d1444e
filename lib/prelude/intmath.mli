(** Exact integer arithmetic helpers used throughout the scheduler.

    All task parameters are integers (discrete time), so hyperperiods are
    computed with exact [gcd]/[lcm].  Overflow is a real concern: the
    hyperperiod of 256 tasks with periods up to 15 is 360360, but a careless
    generator could request much larger periods, so [lcm] checks for
    overflow and raises. *)

exception Overflow of string
(** Raised when an exact operation would exceed [max_int]. *)

val gcd : int -> int -> int
(** [gcd a b] is the greatest common divisor of [abs a] and [abs b].
    [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** [lcm a b] is the least common multiple of [abs a] and [abs b].
    [lcm 0 _ = 0].  @raise Overflow if the result does not fit in an [int]. *)

val lcm_list : int list -> int
(** Least common multiple of a list; [lcm_list [] = 1]. *)

val cdiv : int -> int -> int
(** [cdiv a b] is [ceil (a / b)] for positive [b] and non-negative [a]. *)

val pow : int -> int -> int
(** [pow b e] is [b] to the power [e] ([e >= 0]), checking for overflow. *)

val clamp : lo:int -> hi:int -> int -> int
(** [clamp ~lo ~hi x] forces [x] into the closed interval [[lo, hi]]. *)

val exceeds_product : int -> int -> int -> bool
(** [exceeds_product a b c] is [a > b * c] for [a], [b] >= 0 and [c] > 0,
    exact where [b * c] overflows: the product then exceeds every [int],
    so the answer is [false] instead of a wrapped comparison. *)

val sum : int list -> int

val imod : int -> int -> int
(** Mathematical modulo: [imod a b] is in [[0, b-1]] for [b > 0], even for
    negative [a]. *)

val luby : int -> int
(** The Luby restart sequence 1,1,2,1,1,2,4,… (1-indexed), used by both the
    CDCL SAT solver and the FD search restarts. *)
