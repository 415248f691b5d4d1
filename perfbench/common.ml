(* Shared by both workload families: the clock, the fixed open-loop
   policy, metric records and dataset generation. *)

module W = Tric_workloads
module J = Tric_obs.Json

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The reference rate of the server phase: a modest SNB ingest rate. *)
let reference_rate = 2_000.0

(* The open-loop generator is invalid (the run counts failed) when its
   95th-percentile lateness exceeds this — a generator that
   systematically lags, as decoding notifications in line on the send
   path did.  Single host scheduling gaps are not held against it: a
   2-vCPU VM showed 10-50 ms gaps a few times per run even in an idle
   sleep loop. *)
let gen_late_limit_s = 0.005

(* Host-speed calibration.  On a shared host the same pass varied by
   25% within a minute and whole runs by 2x a few minutes apart, CPU time
   tracking wall time, so the end-to-end times are normalised: a fixed
   kernel that shares no code with the program under test (random
   Hashtbl inserts and probes over 200k keys) is timed before and after
   every pass, and each pass's times are scaled by [calib_ref_s] over the
   mean of the two — seconds at the speed where the kernel takes
   [calib_ref_s].  Over 40 interleaved passes of one dataset the kernel's
   time tracked the pass time with correlation 0.81 (window) and 0.71
   (insert), and scaling cut the passes' spread from 19% to 11% and
   from 15% to 13%.  The kernel allocates, so its time grows with what
   the benchmark holds live: runs keep only the dataset at hand in
   memory. *)
let calib_ref_s = 0.150

let calibrate () =
  Gc.compact ();
  let h = Hashtbl.create 1024 in
  let x = ref 12345 in
  let t0 = now () in
  for i = 0 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x mod 200_000) (i, i);
    ignore (Hashtbl.find_opt h ((!x lsr 7) mod 200_000))
  done;
  now () -. t0

(* Scale factor for a pass between calibrations [before] and [after]. *)
let speed_factor ~before ~after = calib_ref_s /. ((before +. after) /. 2.0)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ms s = s *. 1e3
let us s = s *. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (Float.of_int a) (Float.of_int b)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  sizes : (string * J.t) list;
}

type dataset = {
  stream : Tric_graph.Stream.t;  (** ends with the planted closing edges *)
  queries : Tric_query.Pattern.t list;
}

(* An SNB stream with a planted query database, all drawn from [seed]:
   chains, stars and cycles with the paper's baseline §6.1 mix
   ([Querygen.default] apart from [qdb]: avg length 5, selectivity 0.25,
   overlap 0.35, constant-endpoint probability 0.4).  The variable
   endpoints make a few queries per dataset bind around a hub and own
   results quadratic in its degree, so single datasets differ several
   times over in cost; a run takes medians over several datasets. *)
let snb ~seed ~edges ~qdb =
  let stream = W.Snb.generate ~seed ~edges in
  let config = { W.Querygen.default with qdb } in
  let queries, closing =
    W.Querygen.generate
      (W.Rng.create ((seed * 31) + 17))
      ~graph:(Tric_graph.Stream.final_graph stream) ~config ~first_id:1
  in
  { stream = Tric_graph.Stream.concat stream (Tric_graph.Stream.of_edges closing); queries }

let stat key stats = match List.assoc_opt key stats with Some v -> v | None -> 0

(* Every per-layer metric, printed by every traced run: a layer a
   workload leaves idle reads 0.  Descent levels are 1-based trie depths
   (the engine files a visit under its root node's 0-based depth); l5
   takes depth 5 and deeper. *)
let per_layer =
  [
    ("query.cover_s", "s");
    ("core.add_query_s", "s");
    ("server.register_s", "s");
    ("core.route_s", "s");
    ("core.shard_s", "s");
    ("core.descend_l1_s", "s");
    ("core.descend_l2_s", "s");
    ("core.descend_l3_s", "s");
    ("core.descend_l4_s", "s");
    ("core.descend_l5_s", "s");
    ("core.gather_s", "s");
    ("core.join_s", "s");
    ("core.node_visits_per_update", "count");
    ("core.delta_fanout_mean", "count");
    ("core.join_fanout_mean", "count");
    ("core.index_rebuilds", "count");
    ("core.dispatch_fanout", "count");
    ("engine.minor_words_per_update", "words");
    ("engine.major_collections", "count");
    ("engine.report.matches", "count");
    ("engine.report.retractions", "count");
    ("core.subtract_s", "s");
    ("core.fold_s", "s");
    ("core.batch_cancel_frac", "frac");
    ("core.noop_removal_frac", "frac");
    ("core.delta_probes_per_removal", "count");
    ("core.tuples_removed", "count");
    ("engine.window.self_s", "s");
    ("engine.window.inner_s", "s");
    ("engine.window.expired_per_wave", "count");
    ("engine.window.late_dropped_frac", "frac");
    ("engine.window.live_edges", "count");
    ("rel.arena_live_frac", "frac");
    ("rel.freelist_rows", "count");
    ("server.frame_decode_us", "us");
    ("server.wire_decode_us", "us");
    ("query.parse_update_us", "us");
    ("engine.journal.self_us", "us");
    ("engine.journal.bytes_per_update", "bytes");
    ("server.fanout_encode_us", "us");
    ("server.outbox_us", "us");
    ("server.notify_bytes_per_update", "bytes");
    ("server.outbox_depth_hwm", "count");
    ("server.coalesced_pairs", "count");
    ("server.socket_residual_frac", "frac");
    ("server.gen_late_max_ms", "ms");
    ("obs.trace_overhead_pct", "%");
    ("core.residual_frac", "frac");
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_ups", "1/s");
    ("state_mwords", "Mwords");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("batch_p50_ms", "ms");
    ("batch_p95_ms", "ms");
  ]

(* Fill the traced run's measured values into the full per-layer list. *)
let layer_metrics measured =
  List.map
    (fun (name, unit_) ->
      m name unit_ (match List.assoc_opt name measured with Some v -> v | None -> 0.0))
    per_layer
