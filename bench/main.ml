(* Benchmark harness.

   Two sections:

   1. Bechamel micro-benchmarks — one Test.make per table/figure of the
      paper, measuring the per-update answering cost of a representative
      engine/workload configuration of that figure (plus a few
      infrastructure micro-benches: trie insertion, hash-join probes,
      Cypher parse+plan).

   2. The figure harness — regenerates every table and figure of §6 as a
      paper-style text table via Tric_harness.Figures (workload generator,
      parameter sweep, all baselines, timeout truncation).

   Environment: TRIC_SCALE (divide the paper's sizes; default 50),
   TRIC_BUDGET (seconds per engine run; default 20), TRIC_SEED. *)

open Bechamel
module W = Tric_workloads
module E = Tric_engine
module H = Tric_harness

(* -- Micro-bench helpers ----------------------------------------------------- *)

let getenv_int k default =
  match Option.bind (Sys.getenv_opt k) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

module J = Tric_obs.Json

(* Shared emission for the BENCH_*.json artifacts — one deterministic
   printer for every report instead of per-report hand-rolled Printf
   JSON. *)
let write_bench_json fmt ~file ~bench fields =
  let doc = J.Obj (("bench", J.Str bench) :: fields) in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~pretty:true doc));
  Format.fprintf fmt "wrote %s@.@." file

let workload_fields ~source ~edges ~qdb =
  [ ("source", J.Str source); ("edges", J.int edges); ("qdb", J.int qdb) ]

(* A prepared engine mid-stream: queries indexed, half the stream applied;
   the benched function applies the next update from the second half.  On
   wrap the benched polarity flips: the pass that re-visits the window
   removes its edges, the next pass re-inserts them, and so on — every
   sample is real maintenance work.  (Replaying additions of
   already-present edges, as this bench once did, silently degrades long
   runs into measuring dedup no-op hits.) *)
let update_dispatch_bench ?(shards = 1) ~name ~engine_name ~source ~edges ~qdb () =
  let d =
    W.Dataset.make source
      {
        W.Dataset.edges;
        qdb;
        avg_len = 5;
        selectivity = 0.25;
        overlap = 0.35;
        seed = 7;
      }
  in
  let engine = E.Engines.by_name ~shards engine_name in
  List.iter engine.E.Matcher.add_query d.W.Dataset.queries;
  let stream = d.W.Dataset.stream in
  let n = Tric_graph.Stream.length stream in
  let half = n / 2 in
  for i = 0 to half - 1 do
    ignore (engine.E.Matcher.handle_update (Tric_graph.Stream.get stream i))
  done;
  let pos = ref half in
  let removing = ref false in
  Test.make ~name (Staged.stage (fun () ->
      let i = !pos in
      let u = Tric_graph.Stream.get stream i in
      let u =
        if !removing then Tric_graph.Update.remove (Tric_graph.Update.edge u) else u
      in
      ignore (engine.E.Matcher.handle_update u);
      if i + 1 >= n then begin
        pos := half;
        removing := not !removing
      end
      else pos := i + 1))

(* Micro-batched dispatch: same prepared engine, but the benched step hands
   a whole window to [handle_batch].  Same polarity flip on wrap. *)
let batch_dispatch_bench ~name ~engine_name ~batch ~source ~edges ~qdb =
  let d =
    W.Dataset.make source
      {
        W.Dataset.edges;
        qdb;
        avg_len = 5;
        selectivity = 0.25;
        overlap = 0.35;
        seed = 7;
      }
  in
  let engine = E.Engines.by_name engine_name in
  List.iter engine.E.Matcher.add_query d.W.Dataset.queries;
  let stream = d.W.Dataset.stream in
  let n = Tric_graph.Stream.length stream in
  let half = n / 2 in
  for i = 0 to half - 1 do
    ignore (engine.E.Matcher.handle_update (Tric_graph.Stream.get stream i))
  done;
  let pos = ref half in
  let removing = ref false in
  Test.make ~name
    (Staged.stage (fun () ->
         let lo = !pos in
         let hi = min n (lo + batch) in
         let window =
           List.init (hi - lo) (fun j ->
               let u = Tric_graph.Stream.get stream (lo + j) in
               if !removing then Tric_graph.Update.remove (Tric_graph.Update.edge u)
               else u)
         in
         ignore (engine.E.Matcher.handle_batch window);
         if hi >= n then begin
           pos := half;
           removing := not !removing
         end
         else pos := hi))

(* Deletion-heavy dispatch (the §4.3 maintenance path): engine prepared as
   above, but the benched step applies one addition and then removes that
   same edge — a 50% add / 50% remove churn stream.  Before the removal
   path was made incremental this paid a full-view rescan per affected node
   plus a global embedding-cache invalidation per removal. *)
let churn_dispatch_bench ~name ~engine_name ~source ~edges ~qdb =
  let d =
    W.Dataset.make source
      {
        W.Dataset.edges;
        qdb;
        avg_len = 5;
        selectivity = 0.25;
        overlap = 0.35;
        seed = 7;
      }
  in
  let engine = E.Engines.by_name engine_name in
  List.iter engine.E.Matcher.add_query d.W.Dataset.queries;
  let stream = d.W.Dataset.stream in
  let n = Tric_graph.Stream.length stream in
  let half = n / 2 in
  for i = 0 to half - 1 do
    ignore (engine.E.Matcher.handle_update (Tric_graph.Stream.get stream i))
  done;
  let pos = ref half in
  Test.make ~name
    (Staged.stage (fun () ->
         let i = !pos in
         pos := if i + 1 >= n then half else i + 1;
         let u = Tric_graph.Stream.get stream i in
         ignore (engine.E.Matcher.handle_update u);
         ignore
           (engine.E.Matcher.handle_update
              (Tric_graph.Update.remove (Tric_graph.Update.edge u)))))

(* Run a 50% add / 50% remove stream end-to-end through TRIC/TRIC+ and
   print the deletion-maintenance counters: [delta_probes] shows removals
   were answered by prefix/hinge index lookups (not view rescans) and
   [invalidations_avoided] shows untouched queries kept their caches. *)
let churn_stats_report fmt =
  let edges = getenv_int "TRIC_CHURN_EDGES" 2_000 in
  let qdb = getenv_int "TRIC_CHURN_QDB" 100 in
  let d =
    W.Dataset.make W.Dataset.Snb
      { W.Dataset.edges; qdb; avg_len = 5; selectivity = 0.25; overlap = 0.35; seed = 7 }
  in
  Format.fprintf fmt "=== Deletion maintenance counters (50%% add / 50%% remove, SNB) ===@.@.";
  Format.fprintf fmt
    "prime first half of %d edges, then churn the second half (qdb=%d)@.@." edges qdb;
  let entries =
    List.map
      (fun cache ->
        let t = Tric_core.Tric.create ~cache () in
        List.iter (Tric_core.Tric.add_query t) d.W.Dataset.queries;
        let s = d.W.Dataset.stream in
        let n = Tric_graph.Stream.length s in
        for i = 0 to (n / 2) - 1 do
          ignore (Tric_core.Tric.handle_update t (Tric_graph.Stream.get s i))
        done;
        let t0 = Unix.gettimeofday () in
        for i = n / 2 to n - 1 do
          let u = Tric_graph.Stream.get s i in
          ignore (Tric_core.Tric.handle_update t u);
          ignore
            (Tric_core.Tric.handle_update t
               (Tric_graph.Update.remove (Tric_graph.Update.edge u)))
        done;
        let dt = Unix.gettimeofday () -. t0 in
        Format.fprintf fmt "%-6s churn %.3fs  %a@." (Tric_core.Tric.name t) dt
          Tric_core.Tric.pp_stats (Tric_core.Tric.stats t);
        (Tric_core.Tric.name t, dt, Tric_core.Tric.stats t))
      [ false; true ]
  in
  Format.fprintf fmt "@.";
  write_bench_json fmt ~file:"BENCH_churn.json" ~bench:"churn-5050"
    (workload_fields ~source:"snb" ~edges ~qdb
    @ [
        ( "engines",
          J.Arr
            (List.map
               (fun (name, dt, s) ->
                 J.Obj
                   [
                     ("engine", J.Str name);
                     ("churn_s", J.Num dt);
                     ("removals", J.int s.Tric_core.Tric.removals);
                     ("noop_removals", J.int s.Tric_core.Tric.noop_removals);
                     ("tuples_removed", J.int s.Tric_core.Tric.tuples_removed);
                     ( "invalidations_avoided",
                       J.int s.Tric_core.Tric.invalidations_avoided );
                     ("delta_probes", J.int s.Tric_core.Tric.delta_probes);
                   ])
               entries) );
      ])

(* Per-update vs micro-batched replay of an add-only SNB stream, end to
   end through the Runner: the batched path must amortise trie sweeps and
   final joins into a clear updates/sec win (the acceptance bar is >= 1.5x
   at batch 64 for the non-caching engine). *)
let batch_throughput_report fmt =
  let edges = getenv_int "TRIC_BATCH_EDGES" 4_000 in
  let qdb = getenv_int "TRIC_BATCH_QDB" 100 in
  let d =
    W.Dataset.make W.Dataset.Snb
      { W.Dataset.edges; qdb; avg_len = 5; selectivity = 0.25; overlap = 0.35; seed = 7 }
  in
  Format.fprintf fmt
    "=== Micro-batch throughput (add-only SNB, %d updates, qdb=%d) ===@.@." edges qdb;
  let measured =
    List.map
      (fun name ->
        let base = ref 0.0 in
        let points =
          List.map
            (fun b ->
              let r =
                E.Runner.run ~batch_size:b ~engine:(E.Engines.by_name name)
                  ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
              in
              if b = 1 then base := r.E.Runner.throughput_ups;
              let speedup =
                if !base > 0.0 then r.E.Runner.throughput_ups /. !base else 1.0
              in
              Format.fprintf fmt "%-6s batch=%-4d %10.0f upd/s  mean %.4f ms/upd%s@."
                name b r.E.Runner.throughput_ups r.E.Runner.mean_ms
                (if b = 1 then "" else Printf.sprintf "  (%.2fx vs per-update)" speedup);
              (b, r.E.Runner.throughput_ups, r.E.Runner.mean_ms, speedup))
            [ 1; 64; 256 ]
        in
        (name, points))
      [ "TRIC"; "TRIC+" ]
  in
  Format.fprintf fmt "@.";
  write_bench_json fmt ~file:"BENCH_batch.json" ~bench:"batch-throughput"
    (workload_fields ~source:"snb" ~edges ~qdb
    @ [
        ( "engines",
          J.Arr
            (List.map
               (fun (name, points) ->
                 J.Obj
                   [
                     ("engine", J.Str name);
                     ( "points",
                       J.Arr
                         (List.map
                            (fun (b, ups, mean_ms, speedup) ->
                              J.Obj
                                [
                                  ("batch", J.int b);
                                  ("upd_per_s", J.Num ups);
                                  ("mean_ms", J.Num mean_ms);
                                  ("speedup_vs_batch1", J.Num speedup);
                                ])
                            points) );
                   ])
               measured) );
      ])

(* Assoc lookup with explicit string equality (engine stats lists). *)
let stat_int key l =
  match List.find_opt (fun (k, _) -> String.equal k key) l with
  | Some (_, v) -> v
  | None -> 0

(* Windowed replay: the same timestamped SNB stream through a time-sliding
   windowed TRIC+ at three spans (1k/10k/100k seconds against a ~10s mean
   event gap), per-update and in 64-update micro-batches, in event-time
   order and with 10% skewed lateness.  The numbers that matter:
   [expired_per_wave] is the expiry-batch amortization — how many expired
   edges each watermark advance folds into one net-op removal batch
   (retention runs per update, so the batched rows keep the same wave
   count and amortize the engine feed instead); [late_dropped] confirms
   the watermark discards stragglers instead of corrupting the window.
   Written to BENCH_window.json. *)
let window_report fmt =
  let edges = getenv_int "TRIC_WINDOW_EDGES" 8_000 in
  let qdb = getenv_int "TRIC_WINDOW_QDB" 100 in
  let d =
    W.Dataset.make W.Dataset.Snb
      { W.Dataset.edges; qdb; avg_len = 5; selectivity = 0.25; overlap = 0.35; seed = 7 }
  in
  let mean_gap = 10.0 in
  let spans = [ 1_000; 10_000; 100_000 ] in
  let batches = [ 1; 64 ] in
  let regimes = [ ("in-order", 0.0); ("late-10pct", 0.1) ] in
  Format.fprintf fmt
    "=== Windowed throughput and expiry amortization (SNB, %d updates, qdb=%d, mean gap %.0fs) ===@.@."
    edges qdb mean_gap;
  let measured =
    List.map
      (fun (regime, late_frac) ->
        Format.fprintf fmt "%s:@." regime;
        let stream =
          W.Snb.generate_timed ~mean_gap ~late_frac ~late_max:5_000 ~seed:7 ~edges ()
        in
        let points =
          List.concat_map
            (fun span ->
              let spec =
                Tric_query.Wspec.Time { shape = Tric_query.Wspec.Sliding; span }
              in
              List.map
                (fun batch ->
                  let engine =
                    E.Engines.windowed_spec ~default:spec (fun () ->
                        E.Engines.tric ~cache:true ())
                  in
                  let r =
                    E.Runner.run ~measure_memory:false ~batch_size:batch ~engine
                      ~queries:d.W.Dataset.queries ~stream ()
                  in
                  let stats = engine.E.Matcher.stats () in
                  engine.E.Matcher.shutdown ();
                  let expired = stat_int "win_expired_edges" stats in
                  let waves = stat_int "win_expiry_batches" stats in
                  let late = stat_int "win_late_dropped" stats in
                  let live = stat_int "win_live_edges" stats in
                  let amort =
                    if waves > 0 then float_of_int expired /. float_of_int waves
                    else 0.0
                  in
                  Format.fprintf fmt
                    "  span %-7ds batch=%-3d %10.0f upd/s  expired %6d in %5d waves \
                     (%.1f edges/wave)  late dropped %5d  live %6d@."
                    span batch r.E.Runner.throughput_ups expired waves amort late live;
                  (span, batch, r.E.Runner.throughput_ups, expired, waves, amort, late, live))
                batches)
            spans
        in
        Format.fprintf fmt "@.";
        (regime, late_frac, points))
      regimes
  in
  write_bench_json fmt ~file:"BENCH_window.json" ~bench:"window-expiry"
    (workload_fields ~source:"snb" ~edges ~qdb
    @ [
        ("engine", J.Str "TRIC+");
        ("mean_gap_s", J.Num mean_gap);
        ( "regimes",
          J.Arr
            (List.map
               (fun (regime, late_frac, points) ->
                 J.Obj
                   [
                     ("regime", J.Str regime);
                     ("late_frac", J.Num late_frac);
                     ( "points",
                       J.Arr
                         (List.map
                            (fun (span, batch, ups, expired, waves, amort, late, live) ->
                              J.Obj
                                [
                                  ("span_s", J.int span);
                                  ("batch", J.int batch);
                                  ("upd_per_s", J.Num ups);
                                  ("expired_edges", J.int expired);
                                  ("expiry_waves", J.int waves);
                                  ("expired_per_wave", J.Num amort);
                                  ("late_dropped", J.int late);
                                  ("live_edges", J.int live);
                                ])
                            points) );
                   ])
               measured) );
      ])

(* Domain-scaling report: replay the same SNB workload through the sharded
   dispatcher at 1/2/4/8 domains — add-only, and 50/50 churn (every
   second-half addition immediately retracted) — and report updates/s,
   wall-clock, and aggregated per-shard busy time.  Wall vs busy is the
   honest split: on a single-core container the domains time-slice one
   CPU, so wall cannot drop below the x1 row no matter how cleanly the
   work shards; points where [cores < shards] are flagged so the wall
   numbers cannot be misread as a dispatch regression (or win) the
   hardware makes impossible to observe.  [busy_speedup] compares total
   task seconds against the x1 row — it moves with dispatch overhead
   even on one core — and [fanout] is the mean shards dispatched per net
   op, which owner-targeted routing keeps near the affected-shard count
   instead of nshards.  The points are also written to BENCH_shard.json
   so scaling trajectories can be compared across commits and
   machines. *)
let shard_scaling_report fmt =
  let edges = getenv_int "TRIC_SHARD_EDGES" 4_000 in
  let qdb = getenv_int "TRIC_SHARD_QDB" 100 in
  let d =
    W.Dataset.make W.Dataset.Snb
      { W.Dataset.edges; qdb; avg_len = 5; selectivity = 0.25; overlap = 0.35; seed = 7 }
  in
  let churned =
    let s = d.W.Dataset.stream in
    let n = Tric_graph.Stream.length s in
    let half = n / 2 in
    let out = ref [] in
    for i = 0 to n - 1 do
      let u = Tric_graph.Stream.get s i in
      out := u :: !out;
      if i >= half then
        out := Tric_graph.Update.remove (Tric_graph.Update.edge u) :: !out
    done;
    Tric_graph.Stream.of_updates (List.rev !out)
  in
  Format.fprintf fmt
    "=== Shard scaling (SNB, %d updates, qdb=%d, %d core(s) available) ===@.@."
    edges qdb (Domain.recommended_domain_count ());
  let cores = Domain.recommended_domain_count () in
  let regimes = [ ("add-only", d.W.Dataset.stream); ("churn-50", churned) ] in
  let measured =
    List.map
      (fun (regime, stream) ->
        Format.fprintf fmt "%s:@." regime;
        let base = ref 0.0 in
        let busy_base = ref 0.0 in
        let points =
          List.map
            (fun shards ->
              let engine = E.Engines.tric ~cache:true ~shards () in
              let r =
                E.Runner.run ~measure_memory:false ~engine
                  ~queries:d.W.Dataset.queries ~stream ()
              in
              let stats = engine.E.Matcher.stats () in
              engine.E.Matcher.shutdown ();
              let routed = stat_int "ops_routed" stats in
              let fanout =
                if routed > 0 then
                  float_of_int (stat_int "ops_dispatched" stats) /. float_of_int routed
                else 0.0
              in
              if shards = 1 then begin
                base := r.E.Runner.throughput_ups;
                busy_base := r.E.Runner.busy_s
              end;
              let speedup =
                if !base > 0.0 then r.E.Runner.throughput_ups /. !base else 1.0
              in
              let busy_speedup =
                if r.E.Runner.busy_s > 0.0 then !busy_base /. r.E.Runner.busy_s
                else 1.0
              in
              let limited = cores < shards in
              Format.fprintf fmt
                "  TRIC+ x%-2d %10.0f upd/s  wall %6.3fs  busy %6.3fs  fanout %4.2f  \
                 (%.2fx wall, %.2fx busy vs x1)%s@."
                shards r.E.Runner.throughput_ups r.E.Runner.answer_time_s
                r.E.Runner.busy_s fanout speedup busy_speedup
                (if limited then "  [cores < shards]" else "");
              ( shards, r.E.Runner.throughput_ups, r.E.Runner.answer_time_s,
                r.E.Runner.busy_s, speedup, busy_speedup, fanout, limited ))
            [ 1; 2; 4; 8 ]
        in
        Format.fprintf fmt "@.";
        (regime, points))
      regimes
  in
  write_bench_json fmt ~file:"BENCH_shard.json" ~bench:"shard-scaling"
    (workload_fields ~source:"snb" ~edges ~qdb
    @ [
        ("cores", J.int (Domain.recommended_domain_count ()));
        ( "regimes",
          J.Arr
            (List.map
               (fun (regime, points) ->
                 J.Obj
                   [
                     ("regime", J.Str regime);
                     ( "points",
                       J.Arr
                         (List.map
                            (fun
                              (shards, ups, wall, busy, speedup, busy_speedup,
                               fanout, limited)
                            ->
                              J.Obj
                                [
                                  ("shards", J.int shards);
                                  ("upd_per_s", J.Num ups);
                                  ("wall_s", J.Num wall);
                                  ("busy_s", J.Num busy);
                                  ("speedup_vs_x1", J.Num speedup);
                                  ("busy_speedup_vs_x1", J.Num busy_speedup);
                                  ("dispatch_fanout", J.Num fanout);
                                  ("cores_limited", J.Bool limited);
                                ])
                            points) );
                   ])
               measured) );
      ])

(* Dispatch-fanout smoke: a label-partitioned workload — single-edge
   all-variable queries over pairwise-distinct labels, so every update
   matches exactly one registered key and therefore affects exactly one
   shard — replayed through a 4-shard engine.  Owner-targeted dispatch
   must keep the mean shards-per-op near 1.0; a broadcast dispatcher
   scores nshards (4.0) on the same stream, so [strict] mode fails the
   run when the mean exceeds TRIC_FANOUT_MAX (default 1.5). *)
let fanout_report ?(strict = false) fmt =
  let shards = 4 in
  let nlabels = getenv_int "TRIC_FANOUT_LABELS" 16 in
  let n = getenv_int "TRIC_FANOUT_EDGES" 2_000 in
  let max_fanout =
    match Option.bind (Sys.getenv_opt "TRIC_FANOUT_MAX") float_of_string_opt with
    | Some v when v > 0.0 -> v
    | _ -> 1.5
  in
  let labels = Array.init nlabels (fun i -> Printf.sprintf "fan%d" i) in
  let queries =
    Array.to_list
      (Array.mapi
         (fun i l ->
           let b =
             Tric_query.Pattern.Builder.create ~name:("fan-" ^ l) ~id:(i + 1) ()
           in
           let x = Tric_query.Pattern.Builder.vertex b (Tric_query.Term.var "x") in
           let y = Tric_query.Pattern.Builder.vertex b (Tric_query.Term.var "y") in
           Tric_query.Pattern.Builder.edge b ~label:(Tric_graph.Label.intern l) x y;
           Tric_query.Pattern.Builder.build b)
         labels)
  in
  let t = Tric_core.Tric.create ~cache:true ~shards () in
  Fun.protect
    ~finally:(fun () -> Tric_core.Tric.shutdown t)
    (fun () ->
      List.iter (Tric_core.Tric.add_query t) queries;
      for i = 0 to n - 1 do
        ignore
          (Tric_core.Tric.handle_update t
             (Tric_graph.Update.add
                (Tric_graph.Edge.of_strings
                   labels.(i mod nlabels)
                   (Printf.sprintf "s%d" i)
                   (Printf.sprintf "t%d" i))))
      done;
      let s = Tric_core.Tric.stats t in
      let fanout =
        if s.Tric_core.Tric.ops_routed > 0 then
          float_of_int s.Tric_core.Tric.ops_dispatched
          /. float_of_int s.Tric_core.Tric.ops_routed
        else 0.0
      in
      Format.fprintf fmt
        "=== Dispatch fanout (label-partitioned, %d queries, %d updates, x%d) ===@.@."
        nlabels n shards;
      Format.fprintf fmt
        "ops routed %d, dispatched %d — mean %.3f shard(s)/op (broadcast would be %.1f)@.@."
        s.Tric_core.Tric.ops_routed s.Tric_core.Tric.ops_dispatched fanout
        (float_of_int shards);
      if strict && fanout > max_fanout then begin
        Format.fprintf fmt
          "FAIL: mean dispatch fanout %.3f exceeds %.2f — dispatcher is broadcasting@."
          fanout max_fanout;
        exit 1
      end)

(* Telemetry overhead smoke: the same batched SNB replay through TRIC+
   with metrics off and on, best-of-3 throughput each side.  [strict]
   makes an overhead above TRIC_OVERHEAD_MAX_PCT (default 5%) a failing
   exit — the CI enforcement of the cheap-when-enabled budget (disabled
   mode is separately covered by the zero-allocation span test). *)
let overhead_report ?(strict = false) fmt =
  let edges = getenv_int "TRIC_OVERHEAD_EDGES" 4_000 in
  let qdb = getenv_int "TRIC_OVERHEAD_QDB" 100 in
  let max_pct = float_of_int (getenv_int "TRIC_OVERHEAD_MAX_PCT" 5) in
  let d =
    W.Dataset.make W.Dataset.Snb
      { W.Dataset.edges; qdb; avg_len = 5; selectivity = 0.25; overlap = 0.35; seed = 7 }
  in
  let best metrics =
    let one () =
      let engine = E.Engines.tric ~cache:true ~metrics () in
      let r =
        E.Runner.run ~measure_memory:false ~batch_size:64 ~engine
          ~queries:d.W.Dataset.queries ~stream:d.W.Dataset.stream ()
      in
      engine.E.Matcher.shutdown ();
      r.E.Runner.throughput_ups
    in
    List.fold_left (fun acc () -> Float.max acc (one ())) 0.0 [ (); (); () ]
  in
  let off = best false in
  let on = best true in
  let pct = if off > 0.0 then (off -. on) /. off *. 100.0 else 0.0 in
  Format.fprintf fmt
    "=== Telemetry overhead (TRIC+, batch=64, SNB %d updates, qdb=%d, best of 3) ===@.@."
    edges qdb;
  Format.fprintf fmt "metrics off %10.0f upd/s@.metrics on  %10.0f upd/s@." off on;
  Format.fprintf fmt "overhead    %+9.2f%%  (budget %.0f%%)@.@." pct max_pct;
  if strict && pct > max_pct then begin
    Format.fprintf fmt "FAIL: telemetry overhead %.2f%% exceeds %.0f%% budget@." pct
      max_pct;
    exit 1
  end

(* Data-layout report: live-heap words and per-update allocation on a
   fixed per-update SNB replay, emitted as BENCH_layout.json.  [strict]
   additionally enforces the allocation-regression budget: mean minor
   words allocated per update must stay under TRIC_ALLOC_MAX_WORDS (the
   CI smoke for GC pressure on the hot path — boxed-tuple regressions
   show up here first). *)
let layout_report ?(strict = false) fmt =
  let edges = getenv_int "TRIC_LAYOUT_EDGES" 3_000 in
  let qdb = getenv_int "TRIC_LAYOUT_QDB" 60 in
  let max_minor = float_of_int (getenv_int "TRIC_ALLOC_MAX_WORDS" 1_500) in
  let d =
    W.Dataset.make W.Dataset.Snb
      { W.Dataset.edges; qdb; avg_len = 5; selectivity = 0.25; overlap = 0.35; seed = 7 }
  in
  let run engine_name =
    let engine = E.Engines.by_name engine_name in
    List.iter engine.E.Matcher.add_query d.W.Dataset.queries;
    let stream = d.W.Dataset.stream in
    let n = Tric_graph.Stream.length stream in
    let m0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      ignore (engine.E.Matcher.handle_update (Tric_graph.Stream.get stream i))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let minor = (Gc.minor_words () -. m0) /. float_of_int n in
    Gc.full_major ();
    let live = engine.E.Matcher.memory_words () in
    engine.E.Matcher.shutdown ();
    (float_of_int n /. dt, minor, live)
  in
  let plus_ups, plus_minor, plus_live = run "TRIC+" in
  let plain_ups, plain_minor, plain_live = run "TRIC" in
  Format.fprintf fmt "=== Data layout (SNB %d updates, qdb=%d, per-update) ===@.@." edges qdb;
  Format.fprintf fmt "%-8s %12s %16s %18s@." "engine" "upd/s" "live heap words"
    "minor words/upd";
  Format.fprintf fmt "%-8s %12.0f %16d %18.0f@." "TRIC+" plus_ups plus_live plus_minor;
  Format.fprintf fmt "%-8s %12.0f %16d %18.0f@." "TRIC" plain_ups plain_live plain_minor;
  Format.fprintf fmt "@.";
  write_bench_json fmt ~file:"BENCH_layout.json" ~bench:"layout"
    (workload_fields ~source:"snb" ~edges ~qdb
    @ [
        ( "packed",
          J.Obj
            [
              ("tric_plus_upd_s", J.Num plus_ups);
              ("tric_plus_live_words", J.int plus_live);
              ("tric_plus_minor_words_per_update", J.Num plus_minor);
              ("tric_upd_s", J.Num plain_ups);
              ("tric_live_words", J.int plain_live);
              ("tric_minor_words_per_update", J.Num plain_minor);
            ] );
        ("alloc_budget_minor_words_per_update", J.Num max_minor);
      ]);
  if strict && plus_minor > max_minor then begin
    Format.fprintf fmt
      "FAIL: TRIC+ allocates %.0f minor words/update, budget is %.0f (TRIC_ALLOC_MAX_WORDS)@."
      plus_minor max_minor;
    exit 1
  end

(* -- Subscription-server fan-out --------------------------------------------- *)

(* End-to-end socket pipeline: publish → journal → engine → per-client
   outbox → notification at every subscriber.  [conns] long-lived
   subscriber connections each register [subs / conns] standing queries
   (every query is shared by all connections, so a matching update fans
   out to every one of them).  Latency is publish-to-last-notification;
   throughput counts fully delivered updates.  Written to
   BENCH_server.json. *)
module Srv = Tric_server

let server_point ~conns ~subs ~edges =
  let dir = Filename.get_temp_dir_name () in
  let tag = Printf.sprintf "tric_bench_%d_%d" (Unix.getpid ()) subs in
  let sock = Filename.concat dir (tag ^ ".sock") in
  let journal = Filename.concat dir (tag ^ ".journal") in
  let scratch = [ sock; journal; journal ^ ".snap"; journal ^ ".snap.tmp" ] in
  let clean () = List.iter (fun p -> if Sys.file_exists p then Sys.remove p) scratch in
  clean ();
  let cfg =
    {
      (Srv.Server.default_config ~sock_path:sock ~journal_path:journal) with
      Srv.Server.snapshot_every = 0;
      outbox_soft = 4096;
      outbox_hard = 16384;
    }
  in
  let t = Srv.Server.create cfg in
  let d = Domain.spawn (fun () -> Srv.Server.serve t) in
  Fun.protect ~finally:clean (fun () ->
      let nqueries = max 1 (subs / conns) in
      let clients =
        Array.init conns (fun i ->
            let cl = Srv.Client.connect sock in
            ignore (Srv.Client.hello cl (Printf.sprintf "c%d" i));
            cl)
      in
      (* Registrations are pipelined: send them all, then collect the
         acknowledgements. *)
      Array.iter
        (fun cl ->
          for q = 0 to nqueries - 1 do
            Srv.Client.send cl
              (Srv.Wire.Register { name = "bench"; pattern = Printf.sprintf "?x -l%d-> ?y" q })
          done)
        clients;
      Array.iter
        (fun cl ->
          for _ = 1 to nqueries do
            match Srv.Client.recv_exn ~timeout_s:120.0 cl with
            | Srv.Wire.Registered _ -> ()
            | _ -> failwith "server bench: unexpected reply during registration"
          done)
        clients;
      let pub = Srv.Client.connect sock in
      let rec wait_puback () =
        match Srv.Client.recv_exn ~timeout_s:120.0 pub with
        | Srv.Wire.Puback { useq; _ } -> useq
        | _ -> wait_puback ()
      in
      let rec wait_notify cl useq =
        match Srv.Client.recv_exn ~timeout_s:120.0 cl with
        | Srv.Wire.Notify { useq = u; _ } when u = useq -> ()
        | _ -> wait_notify cl useq
      in
      let lat = Array.make edges 0.0 in
      let t0 = Unix.gettimeofday () in
      for i = 0 to edges - 1 do
        let q = i mod nqueries in
        let ts = Unix.gettimeofday () in
        Srv.Client.send pub
          (Srv.Wire.Publish { pseq = i; update = Printf.sprintf "s%d -l%d-> t%d" i q i });
        let useq = wait_puback () in
        Array.iter (fun cl -> wait_notify cl useq) clients;
        lat.(i) <- Unix.gettimeofday () -. ts;
        if i mod 64 = 63 then
          Array.iter (fun cl -> Srv.Client.send cl (Srv.Wire.Ack { useq })) clients
      done;
      let dt = Unix.gettimeofday () -. t0 in
      Srv.Client.send pub Srv.Wire.Quit;
      (try
         match Srv.Client.recv_exn ~timeout_s:10.0 pub with _ -> ()
       with End_of_file -> ());
      Domain.join d;
      Srv.Client.close pub;
      Array.iter Srv.Client.close clients;
      Array.sort Float.compare lat;
      let pct p =
        let n = Array.length lat in
        lat.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
      in
      ( float_of_int edges /. dt,
        pct 50.0 *. 1_000.0,
        pct 99.0 *. 1_000.0,
        conns * nqueries ))

let server_report fmt =
  let conns = 16 in
  let edges = getenv_int "TRIC_SERVER_EDGES" 1_000 in
  let points =
    match Option.bind (Sys.getenv_opt "TRIC_SERVER_SUBS") int_of_string_opt with
    | Some s when s > 0 -> [ s ]
    | _ -> [ 1_000; 10_000; 100_000 ]
  in
  Format.fprintf fmt
    "=== Subscription server (%d connections, %d updates/point, full fan-out) ===@.@."
    conns edges;
  Format.fprintf fmt "%12s %10s %12s %12s %12s@." "target subs" "actual" "upd/s" "p50 ms"
    "p99 ms";
  let rows =
    List.map
      (fun subs ->
        let upd_s, p50, p99, actual = server_point ~conns ~subs ~edges in
        Format.fprintf fmt "%12d %10d %12.0f %12.3f %12.3f@." subs actual upd_s p50 p99;
        J.Obj
          [
            ("subscriptions", J.int actual);
            ("connections", J.int conns);
            ("updates", J.int edges);
            ("upd_per_s", J.Num upd_s);
            ("notify_p50_ms", J.Num p50);
            ("notify_p99_ms", J.Num p99);
          ])
      points
  in
  Format.fprintf fmt "@.";
  write_bench_json fmt ~file:"BENCH_server.json" ~bench:"server-fanout"
    [ ("engine", J.Str "TRIC+"); ("points", J.Arr rows) ]

let run_and_report fmt tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  Format.fprintf fmt "%-42s %14s@." "micro-benchmark" "ns/op";
  Format.fprintf fmt "%s@." (String.make 58 '-');
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          Format.fprintf fmt "%-42s %14.1f@." (Test.Elt.name elt) ns)
        (Test.elements test))
    tests;
  Format.fprintf fmt "@."

(* -- Micro-benchmarks -------------------------------------------------------- *)

let infra_benches () =
  (* Relation insert + probe. *)
  let rel = Tric_rel.Relation.create ~cache:true ~width:2 () in
  let labels = Array.init 1000 (fun i -> Tric_graph.Label.intern (Printf.sprintf "L%d" i)) in
  let cnt = ref 0 in
  let insert_bench =
    Test.make ~name:"relation: insert w=2"
      (Staged.stage (fun () ->
           incr cnt;
           ignore
             (Tric_rel.Relation.insert rel
                [| labels.(!cnt mod 1000); labels.((!cnt * 7) mod 1000) |])))
  in
  let probe = Tric_rel.Relation.index_on rel ~col:0 in
  let probe_bench =
    Test.make ~name:"relation: cached index probe"
      (Staged.stage (fun () ->
           incr cnt;
           ignore (probe labels.(!cnt mod 1000))))
  in
  (* Covering-path extraction + trie insertion. *)
  let patterns =
    let d =
      W.Dataset.make W.Dataset.Snb
        { W.Dataset.edges = 2_000; qdb = 256; avg_len = 5; selectivity = 0.25; overlap = 0.35; seed = 3 }
    in
    Array.of_list d.W.Dataset.queries
  in
  let pi = ref 0 in
  let cover_bench =
    Test.make ~name:"cover: extract covering paths"
      (Staged.stage (fun () ->
           incr pi;
           ignore (Tric_query.Cover.extract patterns.(!pi mod Array.length patterns))))
  in
  let forest = Tric_core.Trie.create ~cache:false () in
  let ti = ref 0 in
  let qi = ref 0 in
  let trie_bench =
    Test.make ~name:"trie: index one covering path"
      (Staged.stage (fun () ->
           incr ti;
           let p = patterns.(!ti mod Array.length patterns) in
           incr qi;
           List.iteri
             (fun i path ->
               ignore
                 (Tric_core.Trie.insert_path forest
                    (Tric_query.Path.keys p path)
                    ~qid:!qi ~path_index:i))
             (Tric_query.Cover.extract p)))
  in
  (* Cypher parse + plan. *)
  let db = Tric_graphdb.Db.create () in
  ignore (Tric_graphdb.Db.add_stream_edge db (Tric_graph.Edge.of_strings "knows" "a" "b"));
  let parse_bench =
    Test.make ~name:"cypher: parse"
      (Staged.stage (fun () ->
           ignore
             (Tric_graphdb.Cypher.parse
                "MATCH (f:V)-[:hasMod]->(p:V)-[:posted]->(x:V {name: 'pst1'}) RETURN f, p, x")))
  in
  let plan_bench =
    Test.make ~name:"cypher: plan (uncached)"
      (Staged.stage (fun () ->
           ignore
             (Tric_graphdb.Planner.plan
                (Tric_graphdb.Db.store db)
                (Tric_graphdb.Cypher.parse
                   "MATCH (f:V)-[:knows]->(p:V) RETURN f, p"))))
  in
  [ insert_bench; probe_bench; cover_bench; trie_bench; parse_bench; plan_bench ]

(* One Test.make per figure: the per-update dispatch cost of a
   representative configuration of that figure (TRIC+ and its strongest
   competitor, at reduced size so micro-benching stays cheap). *)
let figure_benches () =
  [
    update_dispatch_bench ~name:"fig12a/SNB update: TRIC+" ~engine_name:"TRIC+"
      ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100 ();
    update_dispatch_bench ~name:"fig12a/SNB update: INC+" ~engine_name:"INC+"
      ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100 ();
    update_dispatch_bench ~name:"fig12c/SNB small QDB: TRIC+" ~engine_name:"TRIC+"
      ~source:W.Dataset.Snb ~edges:2_000 ~qdb:20 ();
    update_dispatch_bench ~name:"fig13a/SNB large graph: TRIC+" ~engine_name:"TRIC+"
      ~source:W.Dataset.Snb ~edges:8_000 ~qdb:100 ();
    update_dispatch_bench ~name:"fig14a/TAXI update: TRIC+" ~engine_name:"TRIC+"
      ~source:W.Dataset.Taxi ~edges:2_000 ~qdb:100 ();
    update_dispatch_bench ~name:"fig14b/BioGRID stress: TRIC+" ~engine_name:"TRIC+"
      ~source:W.Dataset.Biogrid ~edges:2_000 ~qdb:100 ();
    churn_dispatch_bench ~name:"§4.3/SNB 50-50 churn: TRIC" ~engine_name:"TRIC"
      ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100;
    churn_dispatch_bench ~name:"§4.3/SNB 50-50 churn: TRIC+" ~engine_name:"TRIC+"
      ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100;
    churn_dispatch_bench ~name:"§4.3/BioGRID 50-50 churn: TRIC+" ~engine_name:"TRIC+"
      ~source:W.Dataset.Biogrid ~edges:2_000 ~qdb:100;
    batch_dispatch_bench ~name:"batch/SNB 64-upd window: TRIC" ~engine_name:"TRIC"
      ~batch:64 ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100;
    batch_dispatch_bench ~name:"batch/SNB 64-upd window: TRIC+" ~engine_name:"TRIC+"
      ~batch:64 ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100;
    (* Sharded dispatch: the same per-update answering step, scattered
       over a domain pool.  On a single-core box the interesting number
       is the scatter/gather overhead vs the x1 row, not a speedup. *)
    update_dispatch_bench ~shards:1 ~name:"shard/SNB update: TRIC+ x1"
      ~engine_name:"TRIC+" ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100 ();
    update_dispatch_bench ~shards:2 ~name:"shard/SNB update: TRIC+ x2"
      ~engine_name:"TRIC+" ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100 ();
    update_dispatch_bench ~shards:4 ~name:"shard/SNB update: TRIC+ x4"
      ~engine_name:"TRIC+" ~source:W.Dataset.Snb ~edges:2_000 ~qdb:100 ();
  ]

let () =
  let fmt = Format.std_formatter in
  (* TRIC_CHURN_ONLY=1: print just the deletion-maintenance counters (fast
     path for CI and for eyeballing the §4.3 win). *)
  if Sys.getenv_opt "TRIC_CHURN_ONLY" <> None then begin
    churn_stats_report fmt;
    exit 0
  end;
  (* TRIC_BATCH_ONLY=1: print just the micro-batch throughput comparison
     (fast path for CI and for eyeballing the batching win). *)
  if Sys.getenv_opt "TRIC_BATCH_ONLY" <> None then begin
    batch_throughput_report fmt;
    exit 0
  end;
  (* TRIC_SHARD_ONLY=1: print just the domain-scaling report (fast path
     for CI and for regenerating BENCH_shard.json). *)
  if Sys.getenv_opt "TRIC_SHARD_ONLY" <> None then begin
    shard_scaling_report fmt;
    exit 0
  end;
  (* TRIC_WINDOW_ONLY=1: just the windowed throughput / expiry
     amortization report (fast path for CI and for regenerating
     BENCH_window.json). *)
  if Sys.getenv_opt "TRIC_WINDOW_ONLY" <> None then begin
    window_report fmt;
    exit 0
  end;
  (* TRIC_FANOUT_ONLY=1: just the dispatch-fanout smoke, failing the run
     if targeted dispatch degrades back into a broadcast (CI). *)
  if Sys.getenv_opt "TRIC_FANOUT_ONLY" <> None then begin
    fanout_report ~strict:true fmt;
    exit 0
  end;
  (* TRIC_OVERHEAD_ONLY=1: just the telemetry-overhead smoke, enforcing
     the TRIC_OVERHEAD_MAX_PCT budget with a failing exit (CI). *)
  if Sys.getenv_opt "TRIC_OVERHEAD_ONLY" <> None then begin
    overhead_report ~strict:true fmt;
    exit 0
  end;
  (* TRIC_LAYOUT_ONLY=1: just the data-layout report (live-heap words +
     upd/s, BENCH_layout.json) with the TRIC_ALLOC_MAX_WORDS
     allocation-regression budget enforced (CI). *)
  if Sys.getenv_opt "TRIC_LAYOUT_ONLY" <> None then begin
    layout_report ~strict:true fmt;
    exit 0
  end;
  (* TRIC_SERVER_ONLY=1: just the subscription-server fan-out bench
     (upd/s + notification latency, BENCH_server.json).  TRIC_SERVER_SUBS
     and TRIC_SERVER_EDGES shrink it for CI. *)
  if Sys.getenv_opt "TRIC_SERVER_ONLY" <> None then begin
    server_report fmt;
    exit 0
  end;
  let cfg = H.Config.from_env () in
  Format.fprintf fmt
    "TRIC benchmark harness — EDBT 2020 reproduction@.scale 1/%d, budget %.0fs/engine (env TRIC_SCALE / TRIC_BUDGET)@.@."
    cfg.H.Config.scale cfg.H.Config.budget_s;
  Format.fprintf fmt "=== Section 1: Bechamel micro-benchmarks ===@.@.";
  run_and_report fmt (infra_benches ());
  run_and_report fmt (figure_benches ());
  churn_stats_report fmt;
  batch_throughput_report fmt;
  window_report fmt;
  shard_scaling_report fmt;
  fanout_report fmt;
  overhead_report fmt;
  server_report fmt;
  Format.fprintf fmt "=== Section 2: paper figures and tables (scaled) ===@.";
  H.Figures.run_all cfg fmt;
  Format.fprintf fmt "@.done.@."
