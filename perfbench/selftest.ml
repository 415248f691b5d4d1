(* Self-tests of the benchmark's own arithmetic ([main.exe selftest], run
   before every measurement and by [dune runtest]).  Returns the exit
   code. *)

let failures = ref []
let check name ok = if not ok then failures := name :: !failures
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)
let raises f = match f () with _ -> false | exception Stats.Unsupported _ -> true

let percentiles () =
  let xs = Array.init 1000 (fun i -> Float.of_int (999 - i)) in
  (* 1000 samples: p99 leaves exactly ten beyond, p99.5 only five. *)
  check "p99 of 1000 supported" (Stats.supported 1000 99.0);
  check "p99.5 of 1000 unsupported" (not (Stats.supported 1000 99.5));
  check "p99 of 999 unsupported" (raises (fun () -> Stats.percentile (Array.sub xs 0 999) 99.0));
  check "p95 of 200 supported" (Stats.supported 200 95.0);
  check "p95 of 199 unsupported" (not (Stats.supported 199 95.0));
  check "p99 interpolates" (close (Stats.percentile xs 99.0) 989.01);
  check "p50 of 1000" (close (Stats.percentile xs 50.0) 499.5);
  check "median of odd" (close (Stats.median [| 3.0; 1.0; 2.0 |]) 2.0);
  check "median leaves input unsorted" (let a = [| 3.0; 1.0; 2.0 |] in ignore (Stats.median a); a.(0) = 3.0)

let subtraction () =
  check "self time" (close (Stats.self_time ~total:10.0 ~children:[ 3.0; 2.5 ]) 4.5);
  check "residual" (close (Stats.residual_frac ~total:10.0 ~parts:[ 6.0; 3.0 ]) 0.1);
  check "over-accounted residual is negative" (Stats.residual_frac ~total:10.0 ~parts:[ 11.0 ] < 0.0);
  check "residual of nothing" (close (Stats.residual_frac ~total:0.0 ~parts:[ 1.0 ]) 0.0)

let lateness () =
  check "lateness worst gap"
    (close (Stats.lateness ~due:[| 0.0; 1.0; 2.0 |] ~sent:[| 0.001; 1.004; 2.002 |]) 0.004);
  check "early is not late" (close (Stats.lateness ~due:[| 1.0 |] ~sent:[| 0.5 |]) 0.0)

let run () =
  failures := [];
  percentiles ();
  subtraction ();
  lateness ();
  match !failures with
  | [] -> 0
  | fs ->
    List.iter (fun f -> prerr_endline ("selftest failed: " ^ f)) (List.rev fs);
    1
