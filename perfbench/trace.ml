(* Reading the engine's own telemetry during a traced run: stage spans
   (accumulated before the 256-slot ring wraps), histogram sums and
   counters, and the derived core-layer metrics. *)

open Common
module E = Tric_engine
module Snap = Tric_obs.Snapshot

(* Stage seconds summed by name; [shard<i>] stages fold into [shard]. *)
type spans = { mutable seen : int; stages : (string, float) Hashtbl.t }

let spans () = { seen = 0; stages = Hashtbl.create 16 }

(* Absorb the spans recorded since the last call.  The ring keeps the
   newest 256, so call at least every 256 engine calls. *)
let absorb acc (recorded : Tric_obs.Span.recorded list) =
  match List.rev recorded with
  | [] -> ()
  | newest :: _ as rev ->
    let total = newest.Tric_obs.Span.dropped + List.length recorded in
    let fresh = total - acc.seen in
    if fresh > List.length recorded then failwith "Trace.absorb: span ring wrapped between reads";
    acc.seen <- total;
    List.iteri
      (fun i (r : Tric_obs.Span.recorded) ->
        if i < fresh then
          List.iter
            (fun (name, dt) ->
              let name = if String.length name > 5 && String.sub name 0 5 = "shard" then "shard" else name in
              let prev = match Hashtbl.find_opt acc.stages name with Some v -> v | None -> 0.0 in
              Hashtbl.replace acc.stages name (prev +. dt))
            r.Tric_obs.Span.stages)
      rev

let stage acc name = match Hashtbl.find_opt acc.stages name with Some v -> v | None -> 0.0

let hist snap name =
  match Snap.find snap name with
  | Some { Snap.data = Snap.Hist h; _ } -> Some h
  | _ -> None

let hist_sum snap name = match hist snap name with Some h -> h.Tric_obs.Histogram.s_sum | None -> 0.0

let hist_mean snap name =
  match hist snap name with
  | Some h when h.Tric_obs.Histogram.s_count > 0 ->
    h.Tric_obs.Histogram.s_sum /. Float.of_int h.Tric_obs.Histogram.s_count
  | _ -> 0.0

let counter snap name = match Snap.counter_value snap name with Some n -> n | None -> 0

(* Seconds of top-level node visits filed under 1-based level [l]. *)
let descend snap l =
  if l < 5 then hist_sum snap (Printf.sprintf "tric_descend_l%d_seconds" (l - 1))
  else
    List.fold_left
      (fun acc d -> acc +. hist_sum snap (Printf.sprintf "tric_descend_l%d_seconds" d))
      0.0 [ 4; 5; 6; 7 ]

(* The blocking path of one traced engine call: the scatter stage covers
   routing and the (sequential) shard task, so route = scatter - shard;
   then fold, subtract, gather and join. *)
let blocking acc = List.fold_left (fun s n -> s +. stage acc n) 0.0 [ "fold"; "scatter"; "subtract"; "gather"; "join" ]

(* Core-layer metrics of one instrumented engine after [updates] updates
   whose engine calls took [call_s] in total. *)
let core ~(engine : E.Matcher.t) ~stats acc ~updates ~call_s =
  let snap = engine.E.Matcher.metrics () in
  let cap, live, free =
    Array.fold_left (fun (c, l, f) (c', l', f') -> (c + c', l + l', f + f')) (0, 0, 0) (engine.E.Matcher.mem ())
  in
  [
    ("core.route_s", stage acc "scatter" -. stage acc "shard");
    ("core.shard_s", stage acc "shard");
    ("core.gather_s", stage acc "gather");
    ("core.join_s", stage acc "join");
    ("core.subtract_s", stage acc "subtract");
    ("core.fold_s", stage acc "fold");
    ("core.node_visits_per_update", iratio (counter snap "tric_node_visits_total") updates);
    ("core.delta_fanout_mean", hist_mean snap "tric_delta_fanout");
    ("core.join_fanout_mean", hist_mean snap "tric_join_fanout");
    ("core.index_rebuilds", Float.of_int (stat "index_rebuilds" stats));
    ("core.dispatch_fanout", iratio (stat "ops_dispatched" stats) (stat "ops_routed" stats));
    ("core.batch_cancel_frac", iratio (stat "batch_cancelled" stats) (stat "batched_updates" stats));
    ("core.noop_removal_frac", iratio (stat "noop_removals" stats) (stat "removals" stats));
    ("core.delta_probes_per_removal", iratio (stat "delta_probes" stats) (stat "removals" stats));
    ("core.tuples_removed", Float.of_int (stat "tuples_removed" stats));
    ("rel.arena_live_frac", iratio live cap);
    ("rel.freelist_rows", Float.of_int free);
    ("core.residual_frac", Stats.residual_frac ~total:call_s ~parts:[ blocking acc ]);
  ]
  @ List.map (fun l -> (Printf.sprintf "core.descend_l%d_s" l, descend snap l)) [ 1; 2; 3; 4; 5 ]

(* The stage table: each blocking stage's share of the traced call time
   and the unaccounted residual, flagged past 10%. *)
let print_table ~title ~total rows =
  Printf.eprintf "stage table (%s): %.4f s traced call time\n" title total;
  List.iter (fun (name, s) -> Printf.eprintf "  %-28s %10.4f s  %6.1f%%\n" name s (100.0 *. ratio s total)) rows;
  let resid = Stats.residual_frac ~total ~parts:(List.map snd rows) in
  Printf.eprintf "  %-28s %10.4f s  %6.1f%%%s\n%!" "unaccounted residual" (resid *. total) (100.0 *. resid)
    (if Float.abs resid > 0.10 then "  ** over 10%: stage times do not account for the call time **" else "")

(* Wrap an engine so the benchmark times every call into it. *)
type timed = { mutable busy : float; mutable add_s : float }

let timed () = { busy = 0.0; add_s = 0.0 }

let wrap tm (e : E.Matcher.t) =
  let clock f x =
    let t0 = now () in
    let r = f x in
    tm.busy <- tm.busy +. (now () -. t0);
    r
  in
  {
    e with
    E.Matcher.handle_update = clock e.E.Matcher.handle_update;
    handle_batch = clock e.E.Matcher.handle_batch;
    add_query =
      (fun p ->
        let t0 = now () in
        e.E.Matcher.add_query p;
        tm.add_s <- tm.add_s +. (now () -. t0));
  }
