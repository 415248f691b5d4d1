open Tric_graph
open Tric_query
open Tric_rel
module Pool = Tric_exec.Pool

type query_info = {
  pattern : Pattern.t;
  paths : Path.t array;
  path_vids : int array array; (* per path: chain vertex-id sequence *)
  path_shards : int array; (* per path: shard owning its trie *)
  terminals : Trie.node array;
  width : int; (* pattern vertex count *)
  (* The per-covering-path result — the paper's matV[P_i] — as one packed
     cache per path, maintained incrementally in both directions: addition
     deltas are appended as they are reported, and deletion deltas are
     subtracted row for row (§4.3).  The caches mirror the terminal views
     exactly, so no epoch/refresh machinery is needed. *)
  caches : Embjoin.Cache.t array;
}

(* Coordinator-side telemetry: event counters and the cross-path join
   instruments (stable — pure functions of the update stream), wall-clock
   phase histograms (unstable), and the span recorder tracing one
   update's journey scatter → gather → join.  Lives next to the ad-hoc
   stats counters; everything here is touched only by the main domain. *)
type obs = {
  reg : Tric_obs.Registry.t;
  o_updates : Tric_obs.Registry.counter;
  o_additions : Tric_obs.Registry.counter;
  o_removals : Tric_obs.Registry.counter;
  o_batches : Tric_obs.Registry.counter;
  o_matches : Tric_obs.Registry.counter;
  o_join_fanout : Tric_obs.Histogram.t; (* matches per reporting query per round *)
  o_gather_s : Tric_obs.Histogram.t;
  o_join_s : Tric_obs.Histogram.t;
  o_spans : Tric_obs.Span.t;
}

let make_obs () =
  let reg = Tric_obs.Registry.create () in
  {
    reg;
    o_updates = Tric_obs.Registry.counter reg "tric_updates_total";
    o_additions = Tric_obs.Registry.counter reg "tric_additions_total";
    o_removals = Tric_obs.Registry.counter reg "tric_removals_total";
    o_batches = Tric_obs.Registry.counter reg "tric_batches_total";
    o_matches = Tric_obs.Registry.counter reg "tric_matches_total";
    o_join_fanout = Tric_obs.Registry.histogram reg ~lo:1.0 ~growth:2.0 "tric_join_fanout";
    o_gather_s = Tric_obs.Registry.histogram reg ~stable:false ~lo:1e-7 "tric_gather_seconds";
    o_join_s = Tric_obs.Registry.histogram reg ~stable:false ~lo:1e-7 "tric_join_seconds";
    o_spans = Tric_obs.Span.create ();
  }

(* The coordinator: routing + scatter/gather around shard-owned state.
   Shards are mutated only inside pool tasks (one task per shard, so no
   two tasks share state) or by the coordinator strictly between pool
   barriers; per-query caches and counters live here and are only ever
   touched by the coordinator. *)
type t = {
  cache : bool;
  strategy : Cover.strategy;
  nshards : int;
  shards : Shard.t array;
  route : Route.table; (* per-key shard bitmaps, grown at add_query *)
  pool : Pool.t option; (* Some iff nshards > 1 *)
  busy : float array; (* per shard: seconds spent in its tasks *)
  shard_ops : int array; (* per shard: net ops dispatched to it *)
  obs : obs option;
  queries : (int, query_info) Hashtbl.t;
  mutable ops_routed : int; (* net ops that went through targeted dispatch *)
  mutable removals : int; (* Remove updates processed *)
  mutable noop_removals : int; (* removals that evicted nothing anywhere *)
  mutable tuples_removed : int; (* view tuples evicted by deletions *)
  mutable invalidations_avoided : int; (* per removal: query caches untouched *)
  mutable batches : int; (* handle_batch calls *)
  mutable batched_updates : int; (* updates received through handle_batch *)
  mutable batch_cancelled : int; (* updates collapsed by in-window net-op folding *)
  mutable batch_net_applied : int; (* net ops that survived the folding *)
}

let create ?(cache = false) ?(strategy = Cover.Upstream) ?(shards = 1) ?(metrics = false) () =
  if shards < 1 then invalid_arg "Tric.create: shards must be >= 1";
  let obs = if metrics then Some (make_obs ()) else None in
  let pool_obs = match obs with Some o -> Some o.reg | None -> None in
  {
    cache;
    strategy;
    nshards = shards;
    shards = Array.init shards (fun sid -> Shard.create ~metrics ~sid ~shards ~cache ());
    route = Route.create_table ~shards;
    pool =
      (if shards > 1 then Some (Pool.create ?obs:pool_obs ~workers:(shards - 1) ())
       else None);
    busy = Array.make shards 0.0;
    shard_ops = Array.make shards 0;
    obs;
    queries = Hashtbl.create 256;
    ops_routed = 0;
    removals = 0;
    noop_removals = 0;
    tuples_removed = 0;
    invalidations_avoided = 0;
    batches = 0;
    batched_updates = 0;
    batch_cancelled = 0;
    batch_net_applied = 0;
  }

let name t = if t.cache then "TRIC+" else "TRIC"
let num_shards t = t.nshards
let busy_times t = Array.copy t.busy
let busy_s t = Array.fold_left ( +. ) 0.0 t.busy
let shutdown t = Option.iter Pool.shutdown t.pool

let metrics_enabled t = Option.is_some t.obs

(* Merged snapshot: coordinator registry first, then every shard's in
   fixed shard order.  Always called between barriers (the coordinator
   API is single-threaded), so reading shard registries is race-free; all
   merge ops are commutative, so stable metrics come out identical at any
   shard count. *)
let metrics t =
  match t.obs with
  | None -> Tric_obs.Snapshot.empty
  | Some o ->
    let shard_regs =
      Array.to_list t.shards |> List.filter_map (fun sh -> Shard.registry sh)
    in
    Tric_obs.Snapshot.of_registries (o.reg :: shard_regs)

let spans t =
  match t.obs with Some o -> Tric_obs.Span.spans o.o_spans | None -> []

(* Dispatch one task per {e targeted} shard (ascending shard id), wait
   for all of them (pool [run] is a full barrier), account per-shard busy
   time, and gather results in ascending shard order — the determinism
   anchor for everything downstream.  Shards outside [sids] hold no trie
   node and no base view for any key the op feeds (the routing bitmaps
   certify exactly this), so skipping them is a semantic no-op and the
   per-op cost tracks affected shards, not shard count.  When a span is
   live, each targeted shard's busy seconds are filed as a stage (the
   per-shard trie-descent leg of the update's journey). *)
let dispatch ?(sp = Tric_obs.Span.none) t sids f =
  match sids with
  | [] -> [||]
  | sids ->
    let sids = Array.of_list sids in
    let tasks = Array.map (fun sid () -> f t.shards.(sid)) sids in
    let timed =
      match t.pool with Some pool -> Pool.run pool tasks | None -> Pool.run_seq tasks
    in
    Array.iteri (fun i (_, dt) -> t.busy.(sids.(i)) <- t.busy.(sids.(i)) +. dt) timed;
    (match t.obs with
    | Some o when sp >= 0 ->
      Tric_obs.Span.stage o.o_spans sp "scatter";
      Array.iteri
        (fun i (_, dt) ->
          Tric_obs.Span.stage_dur o.o_spans sp (Printf.sprintf "shard%d" sids.(i)) dt)
        timed
    | _ -> ());
    Array.map fst timed

(* Route one net op: the shards whose bitmaps any of the edge's four
   generalised keys hit, ascending.  Counted per (op, shard) pair so
   [shard_ops]/[ops_routed] is the mean dispatch fanout — ≈ nshards would
   mean we are still broadcasting. *)
let route_op t e =
  let sids = Route.shard_list (Route.targets t.route e) in
  t.ops_routed <- t.ops_routed + 1;
  List.iter (fun s -> t.shard_ops.(s) <- t.shard_ops.(s) + 1) sids;
  sids

(* Span plumbing: all no-ops (a single integer compare) when metrics are
   off — [Span.none] short-circuits without touching the clock. *)
let span_start t label =
  match t.obs with Some o -> Tric_obs.Span.start o.o_spans label | None -> Tric_obs.Span.none

let span_stage t sp name =
  match t.obs with Some o -> Tric_obs.Span.stage o.o_spans sp name | None -> ()

let add_query t pattern =
  let qid = Pattern.id pattern in
  if Hashtbl.mem t.queries qid then
    invalid_arg (Printf.sprintf "Tric.add_query: duplicate query id %d" qid);
  let paths = Array.of_list (Cover.extract ~strategy:t.strategy pattern) in
  let words = Array.map (fun p -> Path.keys pattern p) paths in
  (* [Route.place] rejects empty key words, and every word is placed
     before any shard state is touched, so a malformed pattern cannot
     leave a partially indexed query behind. *)
  let path_shards = Array.map (fun keys -> Route.place ~shards:t.nshards keys) words in
  (* Grow the dispatch bitmaps: after this, every key of every covering
     path names its owner shard, so updates route to exactly the shards
     whose tries (and base views) they can affect. *)
  Array.iteri
    (fun i keys ->
      List.iter (fun k -> Route.register t.route k ~shard:path_shards.(i)) keys)
    words;
  let terminals =
    Array.mapi
      (fun i keys ->
        Trie.insert_path (Shard.forest t.shards.(path_shards.(i))) keys ~qid
          ~path_index:i)
      words
  in
  let path_vids = Array.map Path.vids paths in
  let width = Pattern.num_vertices pattern in
  (* A terminal shared with earlier queries may already hold rows; an
     empty one costs nothing here. *)
  let caches =
    Array.mapi
      (fun i terminal ->
        let cache = Embjoin.Cache.create ~vids:path_vids.(i) in
        let view = Trie.node_view terminal in
        if Relation.cardinality view > 0 then begin
          let rows = Rows.Vec.create ~cap:(Relation.cardinality view) () in
          Relation.iter_rows (Rows.Vec.push rows) view;
          Embjoin.Cache.append cache (Relation.pack_rows view rows)
        end;
        cache)
      terminals
  in
  Hashtbl.add t.queries qid
    { pattern; paths; path_vids; path_shards; terminals; width; caches }

let remove_query t qid =
  (* Deregister the id from its terminal nodes so a later re-add of the id
     (possibly with a different pattern) cannot inherit stale delta
     attributions.  Trie structure shared with other queries survives;
     branches that held only this query's registrations are pruned
     bottom-up, and every key whose node set shrank gets its dispatch
     mask rebuilt from the forests — without this, long-lived churny
     query DBs decay dispatch fanout back toward broadcast. *)
  match Hashtbl.find_opt t.queries qid with
  | None -> false
  | Some info ->
    Array.iter (fun terminal -> Trie.deregister terminal ~qid) info.terminals;
    let affected = ref [] in
    Array.iteri
      (fun i terminal ->
        let forest = Shard.forest t.shards.(info.path_shards.(i)) in
        let keys, removes = Trie.prune forest terminal in
        (* Detached views leave the live-view eviction sum; keep the
           stats identity (audit: view eviction sum = tuples_removed). *)
        t.tuples_removed <- t.tuples_removed - removes;
        List.iter
          (fun k ->
            if not (List.exists (fun k' -> Ekey.equal k k') !affected) then
              affected := k :: !affected)
          keys)
      info.terminals;
    List.iter
      (fun k ->
        let mask = ref 0 in
        Array.iteri
          (fun s sh ->
            if Trie.nodes_with_key (Shard.forest sh) k <> [] then
              mask := !mask lor (1 lsl s))
          t.shards;
        if !mask = 0 then Route.clear t.route k else Route.set_bits t.route k !mask)
      !affected;
    Hashtbl.remove t.queries qid;
    true

let num_queries t = Hashtbl.length t.queries

(* -- Gather: merge per-shard deltas ----------------------------------------- *)

(* Merge shard deltas into per-live-query per-path packed-batch lists.
   Shards are visited in fixed order and each shard pre-sorts its deltas,
   so the merged lists are deterministic; moreover each (qid, path) is
   registered on exactly one shard, so the per-path lists never mix
   shards.  The batches are standalone flat copies (no row ids), so the
   coordinator holds no reference into any shard's arena. *)
let merge_deltas t per_shard =
  let per_query : (int, Rows.packed list array) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun deltas ->
      List.iter
        (fun (qid, pidx, packed) ->
          match Hashtbl.find_opt t.queries qid with
          | None -> ()
          | Some info ->
            let slots =
              match Hashtbl.find_opt per_query qid with
              | Some d -> d
              | None ->
                let d = Array.make (Array.length info.paths) [] in
                Hashtbl.add per_query qid d;
                d
            in
            slots.(pidx) <- packed :: slots.(pidx))
        deltas)
    per_shard;
  per_query

let report_of_deltas ?(sp = Tric_obs.Span.none) t per_shard =
  let t0 = match t.obs with Some _ -> Unix.gettimeofday () | None -> 0.0 in
  let per_query = merge_deltas t per_shard in
  (match t.obs with
  | Some o ->
    Tric_obs.Histogram.observe o.o_gather_s (Unix.gettimeofday () -. t0);
    Tric_obs.Span.stage o.o_spans sp "gather"
  | None -> ());
  let t1 = match t.obs with Some _ -> Unix.gettimeofday () | None -> 0.0 in
  (* The final per-query cross-path join (Fig. 8, lines 8-13): each
     covering path's delta is appended to its cache and joined against the
     other paths' caches (the delta rule of [Embjoin.add_deltas]).  This is
     the coordinator's finalize step — path deltas computed on different
     shards meet only here.  Distribute the joins over the domain pool by
     hashing join ownership on the query id: group [g] owns the queries
     with [qid mod nshards = g].  Each query appears in exactly one
     group, its join touches only that query's caches, and the
     coordinator prefetches the query infos here, so tasks never read the
     queries table — disjoint mutation, no synchronisation.
     Per-query results are deterministic and the final sort fixes report
     order, so grouping does not affect output. *)
  let groups = Array.make t.nshards [] in
  Hashtbl.iter
    (fun qid deltas ->
      let info = Hashtbl.find t.queries qid in
      let g = qid mod t.nshards in
      groups.(g) <- (qid, info, deltas) :: groups.(g))
    per_query;
  let gids = List.filter (fun g -> groups.(g) <> []) (List.init t.nshards Fun.id) in
  let tasks =
    Array.of_list
      (List.map
         (fun g () ->
           List.filter_map
             (fun (qid, info, deltas) ->
               match Embjoin.add_deltas ~width:info.width info.caches deltas with
               | [] -> None
               | matches -> Some (qid, matches))
             groups.(g))
         gids)
  in
  let timed =
    match t.pool with Some pool -> Pool.run pool tasks | None -> Pool.run_seq tasks
  in
  List.iteri (fun i g -> t.busy.(g) <- t.busy.(g) +. snd timed.(i)) gids;
  let out = List.concat_map (fun (res, _) -> res) (Array.to_list timed) in
  (match t.obs with
  | Some o ->
    (* Telemetry strictly after the barrier, on the coordinator. *)
    List.iter
      (fun (_, matches) ->
        Tric_obs.Registry.add o.o_matches (List.length matches);
        Tric_obs.Histogram.observe o.o_join_fanout (float_of_int (List.length matches)))
      out;
    Tric_obs.Histogram.observe o.o_join_s (Unix.gettimeofday () -. t1);
    Tric_obs.Span.stage o.o_spans sp "join"
  | None -> ());
  List.sort (fun (a, _) (b, _) -> Int.compare a b) out

(* -- Removal bookkeeping ----------------------------------------------------- *)

(* Union several per-removal retraction channels into one sorted,
   deduplicated (qid, embeddings) list. *)
let merge_retraction_channels = function
  | [] -> []
  | [ one ] -> one
  | lists ->
    let tbl : (int, Embedding.t list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (List.iter (fun (qid, embs) ->
           match Hashtbl.find_opt tbl qid with
           | Some cell -> cell := embs @ !cell
           | None -> Hashtbl.add tbl qid (ref embs)))
      lists;
    Hashtbl.fold
      (fun qid cell acc -> (qid, List.sort_uniq Embedding.compare !cell) :: acc)
      tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Account one removal given its gathered per-shard deltas and the total
   evicted-tuple count summed over shards.  Returns the removal's
   retraction channel: per affected query (ascending id), the live
   matches the eviction destroyed.  Per-query delta invalidation: each
   query subtracts exactly the rows evicted at its registered terminals,
   path by path, each path's dead rows first joined against the other
   caches (the delta rule of [Embjoin.remove_deltas]: each destroyed match
   is found once).  Covering paths cover every pattern edge, so any live
   match using the removed edge projects onto a dead row of at least one
   path.  Queries whose terminals lost nothing keep their caches
   untouched. *)
let account_removal t removed per_shard_deltas =
  t.removals <- t.removals + 1;
  t.tuples_removed <- t.tuples_removed + removed;
  if removed = 0 then begin
    (* No-op removal (absent edge, or no view retained it): every cache
       survives verbatim. *)
    t.noop_removals <- t.noop_removals + 1;
    t.invalidations_avoided <- t.invalidations_avoided + num_queries t;
    []
  end
  else begin
    let per_query = merge_deltas t per_shard_deltas in
    let touched = ref 0 in
    let retractions =
      Hashtbl.fold
        (fun qid deltas acc ->
          let info = Hashtbl.find t.queries qid in
          let dead, subtracted = Embjoin.remove_deltas ~width:info.width info.caches deltas in
          if subtracted > 0 then incr touched;
          match dead with [] -> acc | dead -> (qid, dead) :: acc)
        per_query []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    t.invalidations_avoided <- t.invalidations_avoided + (num_queries t - !touched);
    retractions
  end

let apply_removal ?(sp = Tric_obs.Span.none) t sids e =
  let results = dispatch ~sp t sids (fun sh -> Shard.apply_remove sh e) in
  let removed = Array.fold_left (fun acc (_, c) -> acc + c) 0 results in
  let retractions = account_removal t removed (Array.map fst results) in
  span_stage t sp "subtract";
  retractions

let handle_update t u =
  (match t.obs with Some o -> Tric_obs.Registry.incr o.o_updates | None -> ());
  match u.Update.op with
  | Update.Add e ->
    (match t.obs with Some o -> Tric_obs.Registry.incr o.o_additions | None -> ());
    let sp = span_start t "add" in
    (match route_op t e with
    | [] ->
      (* No registered key generalises this edge: no shard holds a view
         it could feed, so there is nothing to do and nothing to report —
         on any shard count, including 1. *)
      ([], [])
    | sids ->
      let per_shard = dispatch ~sp t sids (fun sh -> Shard.apply_add sh e) in
      (report_of_deltas ~sp t per_shard, []))
  | Update.Remove e ->
    (match t.obs with Some o -> Tric_obs.Registry.incr o.o_removals | None -> ());
    let sp = span_start t "remove" in
    let retractions =
      match route_op t e with
      | [] ->
        (* Still a removal for the accounting identities — just a provably
           no-op one. *)
        account_removal t 0 [||]
      | sids -> apply_removal ~sp t sids e
    in
    ([], retractions)

(* -- Micro-batches ----------------------------------------------------------- *)

let handle_batch t updates =
  t.batches <- t.batches + 1;
  t.batched_updates <- t.batched_updates + List.length updates;
  let sp = span_start t "batch" in
  (match t.obs with
  | Some o ->
    Tric_obs.Registry.incr o.o_batches;
    Tric_obs.Registry.add o.o_updates (List.length updates);
    List.iter
      (fun u ->
        if Update.is_addition u then Tric_obs.Registry.incr o.o_additions
        else Tric_obs.Registry.incr o.o_removals)
      updates
  | None -> ());
  (* Net effect per edge: views are joins over deduplicated base sets, so
     within one window only an edge's final polarity matters — duplicates
     collapse and an [Add e; ...; Remove e] window cancels down to one
     (possibly no-op) removal.  Replaying the net ops reaches exactly the
     state of sequential replay; matches that exist only transiently
     inside the window are intentionally never materialised or reported. *)
  let last : bool Edge.Tbl.t = Edge.Tbl.create (2 * List.length updates) in
  let order = ref [] in
  List.iter
    (fun u ->
      let e = Update.edge u in
      if not (Edge.Tbl.mem last e) then order := e :: !order;
      Edge.Tbl.replace last e (Update.is_addition u))
    updates;
  let removals, additions =
    List.partition_map
      (fun e -> if Edge.Tbl.find last e then Either.Right e else Either.Left e)
      (List.rev !order)
  in
  t.batch_cancelled <-
    t.batch_cancelled
    + (List.length updates - List.length removals - List.length additions);
  t.batch_net_applied <- t.batch_net_applied + List.length removals + List.length additions;
  span_stage t sp "fold";
  (* Route each net op to the shards its keys can affect and build
     per-shard op queues in window order, so one pool task carries the
     whole window's work for each targeted shard.  Within a task the
     shard applies its removals in order and then its additions as one
     amortised sweep; shard state is disjoint across shards, and the
     coordinator below replays its cache subtractions removal by removal
     before consuming any addition delta — exactly the sequential
     schedule, whatever the shard interleaving in wall time. *)
  let rem_q = Array.make t.nshards [] in
  let add_q = Array.make t.nshards [] in
  let rem_targets =
    List.map
      (fun e ->
        let sids = route_op t e in
        List.iter (fun s -> rem_q.(s) <- e :: rem_q.(s)) sids;
        sids)
      removals
  in
  List.iter
    (fun e ->
      let sids = route_op t e in
      List.iter (fun s -> add_q.(s) <- e :: add_q.(s)) sids)
    additions;
  let active =
    List.filter
      (fun s -> rem_q.(s) <> [] || add_q.(s) <> [])
      (List.init t.nshards Fun.id)
  in
  let results =
    dispatch ~sp t active (fun sh ->
        let s = Shard.sid sh in
        (* Folded net-op count for this shard: the batch's addition queue
           length pre-sizes the shard's sweep accumulators and arenas. *)
        Shard.apply_ops ~expect:(List.length add_q.(s)) sh
          ~removals:(List.rev rem_q.(s))
          ~additions:(List.rev add_q.(s)))
  in
  let rem_res = Array.make t.nshards [||] in
  let add_res = Array.make t.nshards [] in
  List.iteri
    (fun i s ->
      let removed, added = results.(i) in
      rem_res.(s) <- removed;
      add_res.(s) <- added)
    active;
  (* Account removals in window order.  Shard [s]'s result array lists
     only the removals routed to [s], so walk each with a cursor; an
     unrouted removal is a provable no-op and is accounted as such.
     Per-removal retraction channels accumulate: once a removal retracts
     a match, its cache support is subtracted, so a later removal in the
     same window cannot retract it again — the union is duplicate-free
     across removals and the merge only unions distinct matches per
     query. *)
  let retractions =
    match removals with
    | [] -> []
    | _ ->
      let cursor = Array.make t.nshards 0 in
      let acc = ref [] in
      List.iter2
        (fun _e sids ->
          let per =
            List.map
              (fun s ->
                let slot = rem_res.(s).(cursor.(s)) in
                cursor.(s) <- cursor.(s) + 1;
                slot)
              sids
          in
          let removed = List.fold_left (fun acc (_, c) -> acc + c) 0 per in
          match account_removal t removed (Array.of_list (List.map fst per)) with
          | [] -> ()
          | retr -> acc := retr :: !acc)
        removals rem_targets;
      span_stage t sp "subtract";
      merge_retraction_channels (List.rev !acc)
  in
  match additions with
  | [] -> ([], retractions)
  | _ ->
    let per_shard = Array.of_list (List.map (fun s -> add_res.(s)) active) in
    (report_of_deltas ~sp t per_shard, retractions)

(* -- Probes ---------------------------------------------------------------- *)

let current_matches t qid =
  let info = Hashtbl.find t.queries qid in
  Embjoin.join_caches ~width:info.width info.caches

let covering_paths t qid =
  let info = Hashtbl.find t.queries qid in
  Array.to_list info.paths

let forests t = Array.map Shard.forest t.shards

let forest t =
  if t.nshards <> 1 then
    invalid_arg "Tric.forest: engine is sharded — use Tric.forests";
  Shard.forest t.shards.(0)

type stats = {
  queries : int;
  shards : int;
  tries : int;
  trie_nodes : int;
  base_views : int;
  view_tuples : int;
  index_rebuilds : int;
  removals : int;
  noop_removals : int;
  tuples_removed : int;
  invalidations_avoided : int;
  delta_probes : int;
  batches : int;
  batched_updates : int;
  batch_cancelled : int;
  batch_net_applied : int;
  ops_routed : int;
  ops_dispatched : int;
  shard_ops : int array;
}

let stats (t : t) =
  let fold_forests f init =
    Array.fold_left (fun acc sh -> f (Shard.forest sh) acc) init t.shards
  in
  let view_tuples, rebuilds, delta_probes =
    fold_forests
      (fun forest acc ->
        Trie.fold_nodes
          (fun n (tuples, rb, dp) ->
            ( tuples + Relation.cardinality (Trie.node_view n),
              rb + Relation.stats_rebuilds (Trie.node_view n),
              dp + Relation.stats_delta_probes (Trie.node_view n) ))
          forest acc)
      (0, 0, 0)
  in
  {
    queries = num_queries t;
    shards = t.nshards;
    tries = fold_forests (fun f acc -> acc + Trie.num_tries f) 0;
    trie_nodes = fold_forests (fun f acc -> acc + Trie.num_nodes f) 0;
    base_views = fold_forests (fun f acc -> acc + Trie.num_base_views f) 0;
    view_tuples;
    index_rebuilds = rebuilds;
    removals = t.removals;
    noop_removals = t.noop_removals;
    tuples_removed = t.tuples_removed;
    invalidations_avoided = t.invalidations_avoided;
    delta_probes;
    batches = t.batches;
    batched_updates = t.batched_updates;
    batch_cancelled = t.batch_cancelled;
    batch_net_applied = t.batch_net_applied;
    ops_routed = t.ops_routed;
    ops_dispatched = Array.fold_left ( + ) 0 t.shard_ops;
    shard_ops = Array.copy t.shard_ops;
  }

(* Per-shard packed-memory triples, ascending shard id — the [mem] block
   of [tric_cli stats].  Reading shard arenas is safe here: the
   coordinator API is single-threaded and runs strictly between pool
   barriers. *)
let mem_stats (t : t) = Array.map Shard.mem_stats t.shards

let pp_stats fmt s =
  Format.fprintf fmt
    "queries=%d shards=%d tries=%d nodes=%d base_views=%d view_tuples=%d rebuilds=%d \
     removals=%d noop_removals=%d tuples_removed=%d invalidations_avoided=%d \
     delta_probes=%d batches=%d batched_updates=%d batch_cancelled=%d \
     batch_net_applied=%d ops_routed=%d ops_dispatched=%d"
    s.queries s.shards s.tries s.trie_nodes s.base_views s.view_tuples s.index_rebuilds
    s.removals s.noop_removals s.tuples_removed s.invalidations_avoided s.delta_probes
    s.batches s.batched_updates s.batch_cancelled s.batch_net_applied s.ops_routed
    s.ops_dispatched

(* -- Audit access ----------------------------------------------------------- *)

type query_view = {
  qv_pattern : Pattern.t;
  qv_paths : Path.t array;
  qv_path_vids : int array array;
  qv_path_shards : int array;
  qv_terminals : Trie.node array;
  qv_width : int;
  qv_path_embs : Embedding.t list array;
}

let query_views (t : t) =
  Hashtbl.fold
    (fun qid info acc ->
      ( qid,
        {
          qv_pattern = info.pattern;
          qv_paths = info.paths;
          qv_path_vids = info.path_vids;
          qv_path_shards = info.path_shards;
          qv_terminals = info.terminals;
          qv_width = info.width;
          qv_path_embs = Array.map (Embjoin.Cache.to_embeddings ~width:info.width) info.caches;
        } )
      :: acc)
    t.queries []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let is_caching (t : t) = t.cache

let route_bits (t : t) = Route.fold (fun k mask acc -> (k, mask) :: acc) t.route []

(* -- Test-only corruption hooks --------------------------------------------- *)

module Corrupt = struct
  let first_query (t : t) =
    Hashtbl.fold
      (fun qid info acc ->
        match acc with Some (q, _) when q <= qid -> acc | _ -> Some (qid, info))
      t.queries None

  (* Apply [f] to the first cache of the lowest-id query it succeeds on. *)
  let corrupt_cache t f =
    match first_query t with
    | None -> false
    | Some (_, info) -> Array.exists f info.caches

  let skew_path_cache t = corrupt_cache t Embjoin.Cache.Corrupt.drop_row
  let phantom_cache_row t = corrupt_cache t Embjoin.Cache.Corrupt.duplicate_row

  let desync_stats (t : t) = t.tuples_removed <- t.tuples_removed + 1

  let drop_registration t =
    match first_query t with
    | None -> false
    | Some (qid, info) ->
      Array.length info.terminals > 0
      &&
      (Trie.deregister info.terminals.(0) ~qid;
       true)

  let phantom_view_tuple (t : t) =
    (* Prefer an unregistered (non-terminal) node so only the
       view-coherence invariant trips, not the per-query caches that
       mirror terminal views. *)
    let pick =
      Array.fold_left
        (fun acc sh ->
          Trie.fold_nodes
            (fun n acc ->
              match acc with
              | Some best ->
                if Trie.registrations best <> [] && Trie.registrations n = [] then
                  Some n
                else acc
              | None -> Some n)
            (Shard.forest sh) acc)
        None t.shards
    in
    match pick with
    | None -> false
    | Some node ->
      let width = Trie.node_depth node + 2 in
      let tu =
        Tuple.make (Array.init width (fun _ -> Label.fresh "corrupt"))
      in
      Relation.insert (Trie.node_view node) tu

  let drop_route_bit (t : t) =
    (* Clear the lowest bit of some registered key's mask: the dispatcher
       would now skip a shard whose forest does hold nodes for the key. *)
    let pick =
      Route.fold
        (fun k m acc -> match acc with None when m <> 0 -> Some (k, m) | _ -> acc)
        t.route None
    in
    match pick with
    | None -> false
    | Some (k, m) ->
      Route.set_bits t.route k (m land (m - 1));
      true

  let phantom_route_bit (t : t) =
    (* Set a bit for a shard holding no node for the key: the dispatcher
       would now pay a provably dead task for every matching op. *)
    let full = (1 lsl t.nshards) - 1 in
    let pick =
      Route.fold
        (fun k m acc ->
          match acc with None when m <> 0 && m <> full -> Some (k, m) | _ -> acc)
        t.route None
    in
    match pick with
    | None -> false
    | Some (k, m) ->
      let s = ref 0 in
      while Route.mem_shard m !s do
        incr s
      done;
      Route.set_bits t.route k (m lor (1 lsl !s));
      true

  let misroute_path (t : t) =
    if t.nshards < 2 then false
    else
      match first_query t with
      | None -> false
      | Some (qid, info) ->
        if Array.length info.paths = 0 then false
        else begin
          match Path.keys info.pattern info.paths.(0) with
          | [] -> false
          | first :: _ as keys ->
            let right = Route.owner ~shards:t.nshards first in
            let wrong = (right + 1) mod t.nshards in
            ignore
              (Trie.insert_path (Shard.forest t.shards.(wrong)) keys ~qid
                 ~path_index:0);
            true
        end
end
