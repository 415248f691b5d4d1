(* The benchmark's own arithmetic, kept free of I/O so [Selftest] can pin
   it down: percentiles that refuse to outrun their sample, self time and
   residual subtraction, and generator lateness. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Samples that must lie strictly beyond a reported percentile.  A p99
   over 200 samples is the second-largest sample, which says nothing
   about a tail. *)
let min_beyond = 10

let beyond n p = Float.of_int n *. (1.0 -. (p /. 100.0))

let supported n p = beyond n p >= Float.of_int min_beyond

exception Unsupported of { n : int; p : float }

(* [percentile xs p] with linear interpolation between bracketing ranks;
   raises [Unsupported] when fewer than [min_beyond] samples lie beyond
   [p]. *)
let percentile xs p =
  let n = Array.length xs in
  if not (supported n p) then raise (Unsupported { n; p });
  Tric_obs.Histogram.percentile_sorted (sorted xs) p

let median xs =
  if Array.length xs = 0 then invalid_arg "Stats.median: no samples";
  Tric_obs.Histogram.percentile_sorted (sorted xs) 50.0

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)

let sum = List.fold_left ( +. ) 0.0

(* A layer's self time: its span minus the part its children cover. *)
let self_time ~total ~children = total -. sum children

(* Share of [total] that the listed parts leave unexplained.  Negative
   when the parts over-account (clock granularity, overlapping stages). *)
let residual_frac ~total ~parts = if total <= 0.0 then 0.0 else self_time ~total ~children:parts /. total

(* How late an open-loop generator ran: the worst gap between when a
   request was due and when it was handed to the socket.  Never
   negative — sending early is not lateness. *)
let lateness ~due ~sent =
  if Array.length due <> Array.length sent then invalid_arg "Stats.lateness: length mismatch";
  let worst = ref 0.0 in
  Array.iteri (fun i d -> worst := Float.max !worst (sent.(i) -. d)) due;
  !worst
