open Tric_graph
open Tric_query
open Tric_rel

(* Per-shard telemetry.  The registry is private to this shard — touched
   only by the domain running the shard's pool task — and merged by the
   coordinator between barriers.  Instruments flagged stable aggregate to
   the same totals at any shard count (nodes are partitioned across
   shards and propagation is trie-local); descent timings and dispatch
   counts are placement-dependent and flagged unstable. *)
type obs = {
  reg : Tric_obs.Registry.t;
  fanout : Tric_obs.Histogram.t; (* tuples gained per node per propagation event *)
  mat_depth : Tric_obs.Histogram.t; (* materialization depth, weighted by tuples *)
  descend : Tric_obs.Histogram.t array; (* per-level node-visit seconds *)
  dispatches : Tric_obs.Registry.counter;
}

let max_descend_level = 7

let make_obs () =
  let reg = Tric_obs.Registry.create () in
  {
    reg;
    fanout = Tric_obs.Registry.histogram reg ~lo:1.0 ~growth:2.0 "tric_delta_fanout";
    mat_depth = Tric_obs.Registry.histogram reg ~lo:1.0 ~growth:2.0 "tric_mat_depth";
    descend =
      Array.init (max_descend_level + 1) (fun d ->
          Tric_obs.Registry.histogram reg ~stable:false ~lo:1e-7
            (Printf.sprintf "tric_descend_l%d_seconds" d));
    dispatches = Tric_obs.Registry.counter reg "tric_node_visits_total";
  }

(* [scratch.(d)] collects the rows a depth-[d] node gains during one
   visit.  A descent only ever moves deeper, so a node's rows stay intact
   while its subtree reuses the deeper slots; the next node of the same
   depth clears the slot.  Shard-owned, like everything a task mutates. *)
type t = {
  sid : int;
  cache : bool;
  forest : Trie.t;
  obs : obs option;
  mutable scratch : Rows.Vec.t array;
}

let create ?(metrics = false) ~sid ~shards ~cache () =
  let obs = if metrics then Some (make_obs ()) else None in
  let trie_obs = match obs with Some o -> Some o.reg | None -> None in
  {
    sid;
    cache;
    forest = Trie.create ~id_base:sid ~id_stride:shards ?obs:trie_obs ~cache ();
    obs;
    scratch = Array.init (max_descend_level + 1) (fun _ -> Rows.Vec.create ());
  }

let sid t = t.sid
let forest t = t.forest
let registry t = match t.obs with Some o -> Some o.reg | None -> None

(* The cleared scratch vector for a node at [depth]. *)
let scratch t depth =
  let n = Array.length t.scratch in
  if depth >= n then
    t.scratch <-
      Array.init (max (depth + 1) (2 * n)) (fun d ->
          if d < n then t.scratch.(d) else Rows.Vec.create ());
  let v = t.scratch.(depth) in
  Rows.Vec.clear v;
  v

let mem_stats t =
  Trie.fold_nodes
    (fun n (cap, live, free) ->
      let c, l, f = Relation.mem_stats (Trie.node_view n) in
      (cap + c, live + l, free + f))
    t.forest
    (Trie.fold_base
       (fun _ base (cap, live, free) ->
         let c, l, f = Relation.mem_stats base in
         (cap + c, live + l, free + f))
       t.forest (0, 0, 0))

(* Observe one propagation event: [n] tuples materialized at [depth].
   Registered on every record call, so the fan-out histogram sees the
   per-event delta sizes and the depth histogram the per-level volumes. *)
let observe_event t node n =
  match t.obs with
  | None -> ()
  | Some o ->
    Tric_obs.Histogram.observe o.fanout (float_of_int n);
    Tric_obs.Histogram.observe_n o.mat_depth (float_of_int (Trie.node_depth node)) n

(* Time one top-level node visit (join + downward propagation), filed
   under the visit root's level (clamped).  The visit count is stable —
   the union of every shard's matched nodes is the sequential node set —
   but the timings are wall-clock and stay shard-local.  Two clock reads
   per matched node, paid only with metrics on. *)
let timed_visit t node f =
  match t.obs with
  | None -> f ()
  | Some o ->
    Tric_obs.Registry.incr o.dispatches;
    let level = min (Trie.node_depth node) max_descend_level in
    let t0 = Unix.gettimeofday () in
    f ();
    Tric_obs.Histogram.observe o.descend.(level) (Unix.gettimeofday () -. t0)

(* The per-update visit function, timed only with metrics on: built once
   per update instead of one closure per matched node. *)
let visitor t visit =
  match t.obs with
  | None -> visit
  | Some _ -> fun node -> timed_visit t node (fun () -> visit node)

(* Deltas leave the shard as packed flat copies: row ids are meaningless
   outside the arena (and the view) that allocated them, and the
   shard-escape rule keeps it that way statically. *)
type delta = int * int * Rows.packed

(* Per-node event accumulator, holding registered nodes only: {!deltas_of}
   reads nothing else, so unregistered nodes are observed but never
   packed.  Additions pack the freshly inserted rows at record time
   (they are live then and stay live for the sweep); removals arrive
   already packed (their rows are gone from the arena by the time the
   eviction returns). *)
type record_tbl = (int, Trie.node * Rows.packed list ref) Hashtbl.t

let keep (tbl : record_tbl) node p =
  match Hashtbl.find_opt tbl (Trie.node_id node) with
  | Some (_, cell) -> cell := p :: !cell
  | None -> Hashtbl.add tbl (Trie.node_id node) (node, ref [ p ])

let record_rows t tbl node rows =
  observe_event t node (Rows.Vec.length rows);
  if Trie.is_registered node then keep tbl node (Relation.pack_rows (Trie.node_view node) rows)

let record_packed t tbl node p =
  observe_event t node (Rows.packed_count p);
  if Trie.is_registered node then keep tbl node p

(* -- Additions (Fig. 10, shard-local) -------------------------------------- *)

(* Delta propagation: push the parent's freshly inserted rows into each
   child by joining them with the child's base view, pruning branches
   where the delta dies out.  [drows] are row ids in [node]'s view; the
   child's gains are collected as row ids in the child's view — all joins
   below here move raw cells between arenas, never boxed tuples. *)
let rec propagate t ~record node (drows : Rows.Vec.t) =
  Trie.iter_children
    (fun child ->
      match Trie.base_view t.forest (Trie.node_key child) with
      | None -> ()
      | Some base ->
        if not (Relation.is_empty base) then begin
          let pview = Trie.node_view node in
          let cview = Trie.node_view child in
          let hinge_col = Relation.width pview - 1 in
          let inserted = scratch t (Trie.node_depth child) in
          let extend drow brow =
            let row =
              Relation.insert_extend cview ~src:pview ~row:drow
                ~ext:(Relation.row_col base brow 1)
            in
            if row >= 0 then Rows.Vec.push inserted row
          in
          if t.cache then
            (* TRIC+: probe the maintained index of the base view. *)
            Rows.Vec.iter
              (fun drow ->
                Relation.iter_col_rows base ~col:0
                  (Relation.row_col pview drow hinge_col)
                  (fun brow -> extend drow brow))
              drows
          else begin
            (* TRIC: classic hash join — build on the smaller side (the
               delta), scan the base view probing it. *)
            let built : Rows.Vec.t Label.Tbl.t =
              Label.Tbl.create (2 * Rows.Vec.length drows)
            in
            Rows.Vec.iter
              (fun drow ->
                let key = Relation.row_col pview drow hinge_col in
                match Label.Tbl.find_opt built key with
                | Some v -> Rows.Vec.push v drow
                | None ->
                  let v = Rows.Vec.create () in
                  Rows.Vec.push v drow;
                  Label.Tbl.add built key v)
              drows;
            Relation.iter_rows
              (fun brow ->
                match Label.Tbl.find_opt built (Relation.row_col base brow 0) with
                | Some bucket -> Rows.Vec.iter (fun drow -> extend drow brow) bucket
                | None -> ())
              base
          end;
          if Rows.Vec.length inserted > 0 then begin
            record child inserted;
            propagate t ~record child inserted
          end
        end)
    node

let handle_addition t (e : Edge.t) =
  (* Feed this shard's base views of the four generalised keys; keys no
     trie of this shard mentions have no base view here and are skipped. *)
  List.iter
    (fun k ->
      match Trie.base_view t.forest k with
      | Some base -> ignore (Relation.insert_edge_row base ~src:e.src ~dst:e.dst)
      | None -> ())
    (Ekey.keys_of_edge e);
  (* Visit matching trie nodes shallow-first, so that by the time a node
     joins the update against its parent's view, the parent's view is
     fully up to date. *)
  let inserted_at : record_tbl = Hashtbl.create 16 in
  let record node rows = record_rows t inserted_at node rows in
  let visit node =
    let view = Trie.node_view node in
    let inserted = scratch t (Trie.node_depth node) in
    (match Trie.node_parent node with
    | None ->
      let row = Relation.insert_edge_row view ~src:e.src ~dst:e.dst in
      if row >= 0 then Rows.Vec.push inserted row
    | Some parent ->
      let hinge_col = Trie.node_depth node in
      let pview = Trie.node_view parent in
      let extend prow =
        let row = Relation.insert_extend view ~src:pview ~row:prow ~ext:e.dst in
        if row >= 0 then Rows.Vec.push inserted row
      in
      if t.cache then
        (* TRIC+: maintained index on the parent view's hinge.  Only the
           child view mutates here, so walking the parent's chain is
           safe. *)
        Relation.iter_col_rows pview ~col:hinge_col e.src extend
      else
        (* TRIC: scan the parent view against the single update. *)
        Relation.iter_rows
          (fun prow ->
            if Label.equal (Relation.row_col pview prow hinge_col) e.src then extend prow)
          pview);
    if Rows.Vec.length inserted > 0 then begin
      record node inserted;
      propagate t ~record node inserted
    end
  in
  Trie.iter_matched t.forest e (visitor t visit);
  inserted_at

(* -- Removals (§4.3, shard-local) ------------------------------------------ *)

(* A child tuple extends exactly one parent tuple (its prefix), so the
   child's casualties are exactly the extensions of doomed parent tuples —
   found by probing the child view's maintained prefix index, not by
   scanning the view.  Doomed parent tuples are distinct, so the probed
   buckets are disjoint and need no dedup.  The evictions return the
   casualties packed (snapshotted before their arena slots are freed). *)
let rec propagate_removal ~record node (doomed : Rows.packed) =
  Trie.iter_children
    (fun child ->
      let view = Trie.node_view child in
      let doomed_child = Relation.evict_prefixed view doomed in
      if Rows.packed_count doomed_child > 0 then begin
        record child doomed_child;
        propagate_removal ~record child doomed_child
      end)
    node

let handle_removal t (e : Edge.t) =
  let tuple = Tuple.of_edge e in
  List.iter
    (fun k ->
      match Trie.base_view t.forest k with
      | Some base -> ignore (Relation.remove base tuple)
      | None -> ())
    (Ekey.keys_of_edge e);
  let removed_at : record_tbl = Hashtbl.create 16 in
  (* Every eviction counts towards [tuples_removed], registered or not. *)
  let evicted = ref 0 in
  let record node p =
    evicted := !evicted + Rows.packed_count p;
    record_packed t removed_at node p
  in
  (* Shallow-first: a matched node's own hinge casualties are looked up by
     index; by the time a deeper matched node is visited, tuples already
     evicted through propagation are gone from its hinge index, so nothing
     is recorded twice. *)
  let visit node =
    let doomed = Relation.evict_hinge (Trie.node_view node) ~src:e.src ~dst:e.dst in
    if Rows.packed_count doomed > 0 then begin
      record node doomed;
      propagate_removal ~record node doomed
    end
  in
  Trie.iter_matched t.forest e (visitor t visit);
  (removed_at, !evicted)

(* -- Batched addition sweep (shard-local) ----------------------------------- *)

(* The per-update answering loop, amortised over a window of edges: every
   fresh edge is first folded into the base views; then each affected
   trie node is visited once — shallowest first across the whole batch,
   so by the time a node joins its key's accumulated delta against the
   parent's view, the parent has absorbed every shallower batch delta.
   In TRIC mode this performs one hash-join build + one parent-view scan
   per node per batch instead of one scan per node per update; TRIC+
   probes its maintained index per fresh edge as before, but still saves
   the per-update node locating and sorting.

   [expect] is the coordinator's folded net-addition count for this
   shard: it pre-sizes the per-key accumulator and the base views'
   arenas, so a big window pays one growth instead of a rehash ladder. *)
let handle_additions_batch ?(expect = 0) t (edges : Edge.t list) =
  (* Pre-size the base views touched by this window from the batch's
     per-key edge counts. *)
  if expect > 0 then begin
    let counts : int ref Ekey.Tbl.t = Ekey.Tbl.create 16 in
    List.iter
      (fun (e : Edge.t) ->
        List.iter
          (fun k ->
            match Ekey.Tbl.find_opt counts k with
            | Some c -> incr c
            | None -> Ekey.Tbl.add counts k (ref 1))
          (Ekey.keys_of_edge e))
      edges;
    Ekey.Tbl.iter
      (fun k c ->
        match Trie.base_view t.forest k with
        | Some base -> Relation.reserve base !c
        | None -> ())
      counts
  end;
  (* Feed the base views; remember, per key, the edges that were new. *)
  let fresh_by_key : Edge.t list ref Ekey.Tbl.t = Ekey.Tbl.create (max 64 expect) in
  List.iter
    (fun (e : Edge.t) ->
      List.iter
        (fun k ->
          match Trie.base_view t.forest k with
          | Some base ->
            if Relation.insert_edge_row base ~src:e.src ~dst:e.dst >= 0 then begin
              match Ekey.Tbl.find_opt fresh_by_key k with
              | Some cell -> cell := e :: !cell
              | None -> Ekey.Tbl.add fresh_by_key k (ref [ e ])
            end
          | None -> ())
        (Ekey.keys_of_edge e))
    edges;
  (* Every node whose key gained base tuples, shallowest first. *)
  let seeds =
    Ekey.Tbl.fold
      (fun k cell acc ->
        List.fold_left
          (fun acc n -> (n, !cell) :: acc)
          acc
          (Trie.nodes_with_key t.forest k))
      fresh_by_key []
    |> List.sort (fun (a, _) (b, _) ->
           Int.compare (Trie.node_depth a) (Trie.node_depth b))
  in
  let inserted_at : record_tbl = Hashtbl.create 32 in
  let record node rows = record_rows t inserted_at node rows in
  List.iter
    (fun (node, fresh) ->
      timed_visit t node (fun () ->
          let view = Trie.node_view node in
          let inserted = scratch t (Trie.node_depth node) in
          (match Trie.node_parent node with
          | None ->
            List.iter
              (fun (e : Edge.t) ->
                let row = Relation.insert_edge_row view ~src:e.src ~dst:e.dst in
                if row >= 0 then Rows.Vec.push inserted row)
              fresh
          | Some parent ->
            let hinge_col = Trie.node_depth node in
            let pview = Trie.node_view parent in
            let extend prow dst =
              let row = Relation.insert_extend view ~src:pview ~row:prow ~ext:dst in
              if row >= 0 then Rows.Vec.push inserted row
            in
            if t.cache then
              (* TRIC+: maintained index on the parent view's hinge column. *)
              List.iter
                (fun (e : Edge.t) ->
                  Relation.iter_col_rows pview ~col:hinge_col e.src (fun prow ->
                      extend prow e.dst))
                fresh
            else begin
              (* TRIC: build on the batch's key delta, scan the parent once
                 for the whole window. *)
              let built : Label.t list ref Label.Tbl.t =
                Label.Tbl.create (2 * List.length fresh)
              in
              List.iter
                (fun (e : Edge.t) ->
                  match Label.Tbl.find_opt built e.src with
                  | Some cell -> cell := e.dst :: !cell
                  | None -> Label.Tbl.add built e.src (ref [ e.dst ]))
                fresh;
              Relation.iter_rows
                (fun prow ->
                  match Label.Tbl.find_opt built (Relation.row_col pview prow hinge_col) with
                  | Some cell -> List.iter (fun dst -> extend prow dst) !cell
                  | None -> ())
                pview
            end);
          if Rows.Vec.length inserted > 0 then begin
            record node inserted;
            propagate t ~record node inserted
          end))
    seeds;
  inserted_at

(* -- Delta extraction -------------------------------------------------------- *)

(* Flatten a per-node record table into per-registration deltas, sorted
   by (qid, path index) so the coordinator's gather is deterministic no
   matter the table's iteration order.  A node's events are concatenated
   into one packed batch, shared by all its registrations. *)
let deltas_of (tbl : record_tbl) =
  Hashtbl.fold
    (fun _nid (node, cell) acc ->
      match Trie.registrations node with
      | [] -> acc
      | regs ->
        let packed =
          match !cell with
          | [ p ] -> p
          | ps ->
            Rows.packed_concat ~width:(Relation.width (Trie.node_view node)) (List.rev ps)
        in
        List.fold_left (fun acc (qid, pidx) -> (qid, pidx, packed) :: acc) acc regs)
    tbl []
  |> List.sort (fun (q1, p1, _) (q2, p2, _) ->
         match Int.compare q1 q2 with 0 -> Int.compare p1 p2 | c -> c)

let apply_add t e = deltas_of (handle_addition t e)

let apply_remove t e =
  let removed_at, evicted = handle_removal t e in
  (deltas_of removed_at, evicted)

let apply_removes t edges = Array.of_list (List.map (apply_remove t) edges)

let apply_add_batch ?expect t edges = deltas_of (handle_additions_batch ?expect t edges)

(* One combined window task: this shard's net removals in window order,
   then its net additions as one amortised sweep.  Shard state is
   disjoint across shards and the coordinator replays its cache
   subtractions before consuming the addition deltas, so fusing both
   polarities into a single pool task is observationally identical to
   the former two-barrier schedule. *)
let apply_ops ?expect t ~removals ~additions =
  let removed = apply_removes t removals in
  let added =
    match additions with [] -> [] | edges -> apply_add_batch ?expect t edges
  in
  (removed, added)
