(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

type tail = {
  value : float;
  percentile : float;
  count : int;  (** samples the tail was taken from *)
  beyond : int;  (** samples ranked above [value] *)
  max : float;
}

(* Standard percentiles, in hundredths of a percent so ranks are exact.
   The ladder stops at p99 so that a run that happens to collect more
   samples does not switch to a different statistic. *)
let ladder = [ 9900; 9000; 5000 ]

(* Samples a reported tail must have ranked above it. *)
let min_beyond = 10

(* The highest percentile of [ladder] with at least [min_beyond] samples
   ranked above it (nearest rank).  With fewer than twenty samples no rung
   has ten beyond; the median, the lowest rung, is reported then, because
   the maximum of a handful of batch timings on a shared host is mostly
   noise. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let rank k = max 1 (((k * n) + 9999) / 10000) in
  let k =
    Option.value ~default:5000
      (List.find_opt (fun k -> n - rank k >= min_beyond) ladder)
  in
  let r = rank k in
  {
    value = a.(r - 1);
    percentile = float_of_int k /. 100.0;
    count = n;
    beyond = n - r;
    max = a.(n - 1);
  }

let tail_label t =
  Fmt.str "%g (p%g of n=%d, %d beyond; max %g)" t.value t.percentile t.count
    t.beyond t.max
