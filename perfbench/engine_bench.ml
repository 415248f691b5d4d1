(* The two engine workloads: update -> Report.t through TRIC+ in process,
   closed loop, one caller.

   snb-insert  add-only SNB stream, one [handle_update] per update — the
               paper's headline answering path (Fig. 12).
   snb-window  the same streams timestamped with 10% late events, through
               a sliding time-windowed TRIC+ in [handle_batch] windows of
               64: every addition is eventually retracted by expiry, so
               the §4.3 removal path, batch folding and the cache
               subtract run beside the inserts.

   A run draws [datasets kind] independent SNB datasets from its seed and
   pools its figures over them: with the paper's variable query
   endpoints single datasets differ in cost by up to 2x (insert) and 8x
   (window), more than any bound worth gating on; a pool of forty or
   sixty differs much less. *)

open Common
module E = Tric_engine
module G = Tric_graph

type kind = Insert | Window

(* Dataset sizes: many small datasets, because a run's figures vary
   with which datasets it drew far more than with the host once a few
   dozen are pooled.  The window keeps fewer queries than the insert
   path because expiry makes each of them dearer. *)
let datasets = function Insert -> 40 | Window -> 60
let edges = function Insert -> 2_000 | Window -> 3_000
let qdb = function Insert -> 1_000 | Window -> 300
let batch = 64

(* Window parameters, all passed explicitly.  Mean gap 10 s over a
   10,000 s sliding span keeps ~1,000 edges live; 10% of additions are
   up to 5,000 s late against a watermark slack of 600 s, so some late
   events are absorbed and the rest dropped.  The first span's worth of
   updates fills the window untimed, so every timed batch runs expiry. *)
let mean_gap = 10.0
let span_s = 10_000
let late_frac = 0.1
let late_max = 5_000
let slack = 600
let spec = Tric_query.Wspec.Time { shape = Tric_query.Wspec.Sliding; span = span_s }

let sizes kind =
  [
    ("datasets", J.int (datasets kind));
    ("edges", J.int (edges kind));
    ("queries", J.int (qdb kind));
    ("const_prob", J.Num W.Querygen.default.W.Querygen.const_prob);
    ("engine", J.Str "TRIC+");
    ("shards", J.int 1);
  ]
  @
  match kind with
  | Insert -> [ ("call", J.Str "handle_update") ]
  | Window ->
    [
      ("call", J.Str "handle_batch");
      ("batch", J.int batch);
      ("span_s", J.int span_s);
      ("mean_gap_s", J.Num mean_gap);
      ("late_frac", J.Num late_frac);
      ("late_max_s", J.int late_max);
      ("slack_s", J.int slack);
    ]

type input = {
  queries : Tric_query.Pattern.t list;
  prime : G.Update.t list array;  (** untimed calls before [units] *)
  units : G.Update.t list array;  (** one timed engine call each *)
  primed : int;  (** updates in [prime] *)
  updates : int;  (** updates in [units] *)
  truth : G.Edge.t list;  (** ground-truth live edges after the stream *)
}

let rec chop per acc cur n = function
  | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
  | u :: rest ->
    if n = per then chop per (List.rev cur :: acc) [ u ] 1 rest else chop per acc (u :: cur) (n + 1) rest

let input kind ~seed =
  let d = snb ~seed ~edges:(edges kind) ~qdb:(qdb kind) in
  let stream =
    match kind with
    | Insert -> d.stream
    | Window -> W.Clock.stamp ~mean_gap ~late_frac ~late_max ~seed d.stream
  in
  let ups = G.Stream.to_list stream in
  let live = G.Edge.Tbl.create 4096 in
  List.iter
    (fun u ->
      match u.G.Update.op with
      | G.Update.Add e -> G.Edge.Tbl.replace live e ()
      | G.Update.Remove e -> G.Edge.Tbl.remove live e)
    ups;
  let calls = Array.of_list (chop (match kind with Insert -> 1 | Window -> batch) [] [] 0 ups) in
  let k = match kind with Insert -> 0 | Window -> Float.to_int (Float.of_int span_s /. mean_gap) / batch in
  let units = Array.sub calls k (Array.length calls - k) in
  let size = Array.fold_left (fun n u -> n + List.length u) 0 in
  {
    queries = d.queries;
    prime = Array.sub calls 0 k;
    units;
    primed = List.length ups - size units;
    updates = size units;
    truth = G.Edge.Tbl.fold (fun e () acc -> e :: acc) live [];
  }

(* Sub-dataset seeds: distinct across runs and datasets. *)
let dataset_seeds ~seed ~count = List.init count (fun j -> (seed * 7919) + j)

(* TRIC+, every parameter explicit; the window wraps engines made by
   [factory]. *)
let tric ~metrics () = E.Engines.tric ~cache:true ~shards:1 ~metrics ()

let make kind factory =
  match kind with
  | Insert -> factory ()
  | Window -> E.Engines.windowed_spec ~slack ~default:spec factory

let call kind (engine : E.Matcher.t) unit_ =
  match (kind, unit_) with
  | Insert, [ u ] -> engine.E.Matcher.handle_update u
  | _ -> engine.E.Matcher.handle_batch unit_

(* Correctness gate, outside the timed section: total matches minus
   retractions equals the sum of live results, and (when [audit]) the
   sanitizer is clean against the ground-truth live edges. *)
let check (inp : input) (engine : E.Matcher.t) ~matches ~retractions ~audit =
  let live =
    List.fold_left
      (fun acc p -> acc + List.length (engine.E.Matcher.current_matches (Tric_query.Pattern.id p)))
      0 inp.queries
  in
  let problems =
    if matches - retractions <> live then
      [ Printf.sprintf "matches %d - retractions %d <> live results %d" matches retractions live ]
    else []
  in
  if not audit then problems
  else begin
    let findings = engine.E.Matcher.audit (Some inp.truth) in
    if Tric_audit.Audit.is_clean findings then problems
    else Format.asprintf "audit: %a" Tric_audit.Audit.pp_report findings :: problems
  end

type rep = {
  setup_s : float;
  prime_s : float;
  wall_s : float;
  service : float array;  (** seconds per engine call *)
  matches : int;
  retractions : int;
  mwords : float;
  minor_words : float;
  major : int;
  problems : string list;
}

(* One timed pass over a dataset with a fresh engine. *)
let pass kind (inp : input) ~audit (engine : E.Matcher.t) =
  let (), setup_s = time (fun () -> List.iter engine.E.Matcher.add_query inp.queries) in
  let n = Array.length inp.units in
  let service = Array.make n 0.0 in
  let matches = ref 0 and retractions = ref 0 in
  let count r =
    matches := !matches + E.Report.total_matches r;
    retractions := !retractions + E.Report.total_retractions r
  in
  let (), prime_s = time (fun () -> Array.iter (fun u -> count (call kind engine u)) inp.prime) in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  for i = 0 to n - 1 do
    let s = now () in
    let r = call kind engine inp.units.(i) in
    service.(i) <- now () -. s;
    count r
  done;
  let wall_s = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let mwords = Float.of_int (engine.E.Matcher.memory_words ()) /. 1e6 in
  let problems = check inp engine ~matches:!matches ~retractions:!retractions ~audit in
  {
    setup_s;
    prime_s;
    wall_s;
    service;
    matches = !matches;
    retractions = !retractions;
    mwords;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    problems;
  }

let fresh_pass kind inp ~audit =
  Gc.compact ();
  let engine = make kind (tric ~metrics:false) in
  let r = pass kind inp ~audit engine in
  engine.E.Matcher.shutdown ();
  r

(* Per-update latency: an update answered inside a batch waits for the
   whole batch call.  [sizes] are the calls' update counts. *)
let per_update kind ~sizes service =
  match kind with
  | Insert -> service
  | Window -> Array.concat (Array.to_list (Array.mapi (fun i n -> Array.make n service.(i)) sizes))

(* Per 64-update window of work: the batch call itself, or 64 consecutive
   single-update calls. *)
let per_batch kind service =
  match kind with
  | Window -> service
  | Insert ->
    Array.init (Array.length service / batch) (fun b -> Array.fold_left ( +. ) 0.0 (Array.sub service (b * batch) batch))

(* What a run keeps of one pass: the calls' update counts and the pass,
   its call times scaled to the reference host speed. *)
type kept = { sizes : int array; r : rep }

(* A run's figures, pooled over every pass in it: throughput as updates
   over summed call time, percentiles over all per-update or per-batch
   samples, and [setup_s] the median over every setup.  Every dataset has
   been passed over equally often, so the pool weighs them alike.  Also
   returns the percentiles' sample counts. *)
let summarise kind (passes : kept list) =
  let all f = Array.concat (List.map f passes) in
  let service = all (fun k -> k.r.service) in
  let updates = Array.fold_left ( + ) 0 (all (fun k -> k.sizes)) in
  let lat = all (fun k -> per_update kind ~sizes:k.sizes k.r.service) in
  let bat = all (fun k -> per_batch kind k.r.service) in
  let pct a p = ms (Stats.percentile a p) in
  let value = function
    | "setup_s" -> Stats.median (Array.of_list (List.map (fun k -> k.r.setup_s) passes))
    | "throughput_ups" -> Float.of_int updates /. Array.fold_left ( +. ) 0.0 service
    | "state_mwords" -> Stats.mean (Array.of_list (List.map (fun k -> k.r.mwords) passes))
    | "latency_p50_ms" -> pct lat 50.0
    | "latency_p99_ms" -> pct lat 99.0
    | "batch_p50_ms" -> pct bat 50.0
    | "batch_p95_ms" -> pct bat 95.0
    | name -> invalid_arg ("Engine_bench.summarise: " ^ name)
  in
  ( List.map (fun (name, unit_) -> m name unit_ (value name)) end_to_end,
    [ ("latency_samples", J.int (Array.length lat)); ("batch_samples", J.int (Array.length bat)) ] )

(* The audit costs more than the pass it checks, so the first round
   audits this many datasets; every pass gets the cheaper check. *)
let audited_datasets = 4

(* Rounds of one fresh-engine pass over every dataset until the time is
   up: a further round starts only when one more as long as the last
   fits before the deadline, so the run stays near [seconds] whatever
   the program's speed.  Each dataset is generated just before its pass
   and dropped after it, so the heap holds one dataset at a time. *)
let run kind ~seed ~seconds =
  let seeds = dataset_seeds ~seed ~count:(datasets kind) in
  let deadline = now () +. seconds in
  let failed = ref 0 and attempted = ref 0 and rounds = ref 0 in
  let passes = ref [] in
  let calibs = ref [ calibrate () ] in
  let round () =
    List.iteri
      (fun j seed ->
        let inp = input kind ~seed in
        let r = fresh_pass kind inp ~audit:(!rounds = 0 && j < audited_datasets) in
        let after = calibrate () in
        let f = speed_factor ~before:(List.hd !calibs) ~after in
        calibs := after :: !calibs;
        List.iter prerr_endline r.problems;
        if r.problems <> [] then failed := !failed + inp.updates;
        attempted := !attempted + inp.updates;
        let r = { r with setup_s = r.setup_s *. f; service = Array.map (fun s -> s *. f) r.service } in
        passes := { sizes = Array.map List.length inp.units; r } :: !passes)
      seeds;
    incr rounds
  in
  let last = ref 0.0 in
  while !rounds = 0 || now () +. !last < deadline do
    let (), dt = time round in
    last := dt
  done;
  let metrics, samples = summarise kind !passes in
  {
    metrics;
    attempted = !attempted;
    failed = !failed;
    sizes =
      sizes kind
      @ samples
      @ [ ("rounds", J.int !rounds); ("calib_median_ms", J.Num (ms (Stats.median (Array.of_list !calibs)))) ];
  }

(* -- traced run --------------------------------------------------------- *)

(* The traced run covers the first [traced_datasets] of the run's
   datasets. *)
let traced_datasets = 5

(* One untraced and one traced pass per dataset.  The traced pass runs an
   instrumented engine ([~metrics:true]) behind a timing wrapper (for the
   window: the window's inner engine), reads the engine's stage spans and
   histograms, and prints the stage table. *)
let traced kind ~seed =
  let inps = List.map (fun seed -> input kind ~seed) (dataset_seeds ~seed ~count:traced_datasets) in
  let sum = Hashtbl.create 64 in
  let add name v = Hashtbl.replace sum name (v +. Option.value ~default:0.0 (Hashtbl.find_opt sum name)) in
  let failed = ref 0 and attempted = ref 0 in
  let plain_s = ref 0.0 and traced_s = ref 0.0 in
  List.iter
    (fun (inp : input) ->
      let cover, cover_s =
        time (fun () -> List.map (fun p -> Tric_query.Cover.extract p) inp.queries)
      in
      ignore cover;
      add "query.cover_s" cover_s;
      let plain = fresh_pass kind inp ~audit:false in
      plain_s := !plain_s +. plain.wall_s;
      add "engine.minor_words_per_update" (plain.minor_words /. Float.of_int inp.updates /. Float.of_int traced_datasets);
      add "engine.major_collections" (Float.of_int plain.major);
      Gc.compact ();
      let tm = Trace.timed () in
      let inner = ref None in
      let factory () =
        let e = Trace.wrap tm (tric ~metrics:true ()) in
        inner := Some e;
        e
      in
      let engine = make kind factory in
      (* The window builds its inner engine when the first query lands. *)
      let core_engine () = Option.get !inner in
      let acc = Trace.spans () in
      let wrapped =
        let calls = ref 0 in
        let absorb r =
          incr calls;
          if !calls mod 100 = 0 then Trace.absorb acc ((core_engine ()).E.Matcher.spans ());
          r
        in
        {
          engine with
          E.Matcher.handle_update = (fun u -> absorb (engine.E.Matcher.handle_update u));
          handle_batch = (fun b -> absorb (engine.E.Matcher.handle_batch b));
        }
      in
      let r = pass kind inp ~audit:false wrapped in
      let core_engine = core_engine () in
      Trace.absorb acc (core_engine.E.Matcher.spans ());
      List.iter prerr_endline r.problems;
      if r.problems <> [] then failed := !failed + inp.updates;
      attempted := !attempted + inp.updates;
      (* The stats, spans and wrapped-engine time cover the untimed
         priming calls too. *)
      let outer_s = r.prime_s +. Array.fold_left ( +. ) 0.0 r.service in
      let all_updates = inp.primed + inp.updates in
      traced_s := !traced_s +. r.wall_s;
      add "core.add_query_s" tm.Trace.add_s;
      add "engine.report.matches" (Float.of_int r.matches);
      add "engine.report.retractions" (Float.of_int r.retractions);
      let stats = engine.E.Matcher.stats () in
      List.iter
        (fun (name, v) ->
          (* Means and fractions average over datasets; the rest sum. *)
          let averaged =
            List.exists
              (fun suffix -> Filename.check_suffix name suffix)
              [ "_frac"; "_mean"; "_per_update"; "_per_removal"; "dispatch_fanout"; "_per_wave" ]
          in
          add name (if averaged then v /. Float.of_int traced_datasets else v))
        (Trace.core ~engine:core_engine ~stats acc ~updates:all_updates ~call_s:tm.Trace.busy);
      (match kind with
      | Insert -> ()
      | Window ->
        add "engine.window.self_s" (Stats.self_time ~total:outer_s ~children:[ tm.Trace.busy ]);
        add "engine.window.inner_s" tm.Trace.busy;
        add "engine.window.expired_per_wave"
          (iratio (stat "win_expired_edges" stats) (stat "win_expiry_batches" stats) /. Float.of_int traced_datasets);
        add "engine.window.late_dropped_frac"
          (iratio (stat "win_late_dropped" stats) all_updates /. Float.of_int traced_datasets);
        add "engine.window.live_edges" (Float.of_int (stat "win_live_edges" stats)));
      let stage n = Trace.stage acc n in
      Trace.print_table ~title:(Printf.sprintf "engine calls, dataset of %d updates" all_updates) ~total:tm.Trace.busy
        [
          ("route (scatter - shard)", stage "scatter" -. stage "shard");
          ("shard (trie descent)", stage "shard");
          ("fold", stage "fold");
          ("subtract", stage "subtract");
          ("gather", stage "gather");
          ("join", stage "join");
        ];
      engine.E.Matcher.shutdown ())
    inps;
  add "obs.trace_overhead_pct" (100.0 *. ratio (!traced_s -. !plain_s) !plain_s);
  {
    metrics = layer_metrics (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sum []);
    attempted = !attempted;
    failed = !failed;
    sizes = sizes kind @ [ ("traced_datasets", J.int traced_datasets) ];
  }
