open Tric_graph

type probe = Label.t -> Tuple.t list

(* Telemetry hooks: counter cells resolved once at wiring time (Registry
   lookups happen at [make_obs], not per event), shared by every relation
   of one family (all node views of a shard, all base views, ...). *)
type obs = {
  o_inserts : Tric_obs.Registry.counter;
  o_removes : Tric_obs.Registry.counter;
  o_rebuilds : Tric_obs.Registry.counter;
  o_delta_probes : Tric_obs.Registry.counter;
}

let make_obs reg ~prefix ~stable =
  let c name = Tric_obs.Registry.counter reg ~stable (prefix ^ "_" ^ name) in
  {
    o_inserts = c "inserts_total";
    o_removes = c "removes_total";
    o_rebuilds = c "rebuilds_total";
    o_delta_probes = c "delta_probes_total";
  }

(* Every index files row ids of the relation's arena:
   - the prefix/hinge delta indexes key buckets by the Tuple-compatible
     hash of the relevant column range (collisions are tolerated — probes
     re-check cell equality);
   - the cache-mode column indexes ([colidx] below) chain the rows of each
     exact column label through a per-index [next] array;
   - the dedup set is the one structure paid for by every row of every
     relation, so it is a flat open-addressing table of row ids (linear
     probing against arena cell content) rather than a hash->bucket
     Hashtbl — ~2-4 words per row instead of ~10. *)
type hash_index = (int, Rows.Vec.t) Hashtbl.t

(* Open-addressing slot markers of the dedup and column tables: any value
   >= 0 is a filed row id (dedup) or label int (column keys). *)
let dempty = -1
let dtomb = -2

(* A cached hash-join index on one column (paper §4.2 "Caching"): an
   open-addressing table (linear probing, load <= 1/2, tombstones) from
   the column's label int to the first and last row of that label's
   chain; the chains are threaded through [next], indexed by row id and
   grown with the arena.  Chains keep insertion order, a key whose chain
   empties is tombstoned at once, and a miss reads one [keys] slot. *)
type colidx = {
  col : int;
  mutable keys : int array; (* slot -> label int, [dempty] or [dtomb] *)
  mutable heads : int array; (* slot -> first row of the key's chain *)
  mutable tails : int array; (* slot -> last row of the key's chain *)
  mutable nkeys : int; (* filed keys *)
  mutable ntombs : int; (* tombstones awaiting the next rehash *)
  mutable next : int array; (* row -> next row of its chain, or -1 *)
}

type t = {
  width : int;
  cache : bool;
  arena : Rows.t;
  mutable dslots : int array; (* membership: open-addressing row-id table *)
  mutable dcount : int; (* filed rows *)
  mutable dtombs : int; (* tombstones awaiting the next rehash *)
  mutable indexes : colidx array; (* cache mode only; scanned by column *)
  mutable prefix_idx : hash_index option; (* first (width-1) columns *)
  mutable hinge_idx : hash_index option; (* last two columns *)
  mutable runs : (int * int array) list; (* col -> sorted row run (cold) *)
  scratch : int array; (* width cells: boundary Tuple -> cells staging *)
  mutable rebuilds : int;
  mutable delta_probes : int;
  mutable inserts : int; (* successful inserts over the lifetime *)
  mutable removes : int; (* successful removes over the lifetime *)
  obs : obs option;
}

(* Smallest power of two, at least [least], with room for [n] filed
   entries at load <= 1/2. *)
let slots_for ~least n =
  let rec go c = if c >= (2 * n) + 2 then c else go (2 * c) in
  go least

let dsize_for = slots_for ~least:16

let create ?(cache = false) ?obs ?(expect = 0) ~width () =
  {
    width;
    cache;
    arena = Rows.create ~expect ~width ();
    dslots = Array.make (dsize_for expect) dempty;
    dcount = 0;
    dtombs = 0;
    indexes = [||];
    prefix_idx = None;
    hinge_idx = None;
    runs = [];
    scratch = Array.make width 0;
    rebuilds = 0;
    delta_probes = 0;
    inserts = 0;
    removes = 0;
    obs;
  }

let width r = r.width
let cardinality r = Rows.live r.arena
let is_empty r = cardinality r = 0
let reserve r n = Rows.reserve r.arena n
let mem_stats r = (Rows.capacity r.arena, Rows.live r.arena, Rows.free_count r.arena)

(* -- Boundary conversions ---------------------------------------------------- *)

let fill_scratch r t =
  for i = 0 to r.width - 1 do
    r.scratch.(i) <- Label.to_int (Tuple.get t i)
  done

let row_col r row col = Label.of_int (Rows.get r.arena row col)
let row_tuple r row = Tuple.make (Array.map Label.of_int (Rows.read r.arena row))

(* -- Hash-bucket plumbing ---------------------------------------------------- *)

let hadd (tbl : hash_index) h row =
  match Hashtbl.find_opt tbl h with
  | Some v -> Rows.Vec.push v row
  | None ->
    let v = Rows.Vec.create () in
    Rows.Vec.push v row;
    Hashtbl.add tbl h v

(* Never keep empty buckets alive. *)
let hremove (tbl : hash_index) h row =
  match Hashtbl.find_opt tbl h with
  | Some v ->
    ignore (Rows.Vec.remove_value v row);
    if Rows.Vec.length v = 0 then Hashtbl.remove tbl h
  | None -> ()

(* Probe the dedup table for a row whose cells equal [buf] at [off]
   (hashed as [h]); the row id, or -1.  The growth policy keeps at least
   one [dempty] slot, so the probe terminates. *)
let dfind r h buf off =
  let mask = Array.length r.dslots - 1 in
  let rec go i =
    let s = Array.unsafe_get r.dslots i in
    if s = dempty then -1
    else if s >= 0 && Rows.equal_cols r.arena s ~lo:0 buf ~off ~len:r.width then s
    else go ((i + 1) land mask)
  in
  go (h land mask)

(* Re-place every filed row into a fresh table (drops tombstones). *)
let drehash r size =
  let slots = Array.make size dempty in
  let mask = size - 1 in
  Array.iter
    (fun s ->
      if s >= 0 then begin
        let rec place i =
          if Array.unsafe_get slots i = dempty then Array.unsafe_set slots i s
          else place ((i + 1) land mask)
        in
        place (Rows.hash_row r.arena s land mask)
      end)
    r.dslots;
  r.dslots <- slots;
  r.dtombs <- 0

(* File [row] (hashed as [h], known absent) in the first reusable slot,
   growing first so the load factor stays under 1/2. *)
let dinsert r h row =
  if 2 * (r.dcount + r.dtombs + 1) > Array.length r.dslots then
    drehash r (dsize_for (r.dcount + 1));
  let mask = Array.length r.dslots - 1 in
  let rec place i =
    let s = Array.unsafe_get r.dslots i in
    if s = dempty || s = dtomb then begin
      if s = dtomb then r.dtombs <- r.dtombs - 1;
      Array.unsafe_set r.dslots i row
    end
    else place ((i + 1) land mask)
  in
  place (h land mask);
  r.dcount <- r.dcount + 1

(* Tombstone the slot filing [row] (hashed as [h]); the dedup invariant
   makes row-id equality sufficient along the probe chain. *)
let dremove r h row =
  let mask = Array.length r.dslots - 1 in
  let rec go i =
    let s = Array.unsafe_get r.dslots i in
    if s = row then begin
      Array.unsafe_set r.dslots i dtomb;
      r.dcount <- r.dcount - 1;
      r.dtombs <- r.dtombs + 1
    end
    else if s <> dempty then go ((i + 1) land mask)
  in
  go (h land mask)

let find_cells r buf off = dfind r (Rows.hash_ints buf ~off ~len:r.width) buf off

let mem r t =
  if Tuple.width t <> r.width then false
  else begin
    fill_scratch r t;
    find_cells r r.scratch 0 >= 0
  end

(* -- Column index: chained open-addressing table ------------------------------ *)

(* Column tables start at half the dedup table's minimum: an index exists
   per (view, column) pair, so the many small views pay less. *)
let csize_for = slots_for ~least:8

(* Label ints are dense, so an identity hash would lay consecutive labels
   out as one long linear-probing run; mix the bits first. *)
let chash key =
  let h = key * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* The probe loops are top-level functions rather than local closures, so
   a lookup allocates nothing. *)
let rec cprobe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i else if k = dempty then -1 else cprobe keys mask key ((i + 1) land mask)

(* The slot filing [key], or -1.  The growth policy keeps at least one
   [dempty] slot, so the probe terminates. *)
let cfind ci key =
  let keys = ci.keys in
  let mask = Array.length keys - 1 in
  cprobe keys mask key (chash key land mask)

(* First empty or tombstoned slot from [i]. *)
let rec cfree keys mask i =
  if Array.unsafe_get keys i < 0 then i else cfree keys mask ((i + 1) land mask)

(* Re-place every filed key into fresh [size]-slot arrays (drops tombstones). *)
let crehash ci size =
  let keys = Array.make size dempty in
  let heads = Array.make size (-1) and tails = Array.make size (-1) in
  let mask = size - 1 in
  for s = 0 to Array.length ci.keys - 1 do
    let k = ci.keys.(s) in
    if k >= 0 then begin
      let i = cfree keys mask (chash k land mask) in
      keys.(i) <- k;
      heads.(i) <- ci.heads.(s);
      tails.(i) <- ci.tails.(s)
    end
  done;
  ci.keys <- keys;
  ci.heads <- heads;
  ci.tails <- tails;
  ci.ntombs <- 0

(* Append [row] to the chain of its column label, filing the label (in the
   first reusable slot, growing first so the load stays under 1/2) if it
   is new. *)
let col_add r ci row =
  if row >= Array.length ci.next then begin
    let next = Array.make (max (2 * Array.length ci.next) (Rows.capacity r.arena)) (-1) in
    Array.blit ci.next 0 next 0 (Array.length ci.next);
    ci.next <- next
  end;
  ci.next.(row) <- -1;
  let key = Rows.get r.arena row ci.col in
  let s = cfind ci key in
  if s >= 0 then begin
    ci.next.(ci.tails.(s)) <- row;
    ci.tails.(s) <- row
  end
  else begin
    if 2 * (ci.nkeys + ci.ntombs + 1) > Array.length ci.keys then
      crehash ci (csize_for (ci.nkeys + 1));
    let mask = Array.length ci.keys - 1 in
    let i = cfree ci.keys mask (chash key land mask) in
    if ci.keys.(i) = dtomb then ci.ntombs <- ci.ntombs - 1;
    ci.keys.(i) <- key;
    ci.heads.(i) <- row;
    ci.tails.(i) <- row;
    ci.nkeys <- ci.nkeys + 1
  end

(* Splice [row] out of the chain walked from [prev]; its predecessor, or
   -1 if the chain does not hold it. *)
let rec cunlink next row prev =
  let cur = next.(prev) in
  if cur = row then begin
    next.(prev) <- next.(row);
    prev
  end
  else if cur < 0 then -1
  else cunlink next row cur

(* Unlink [row] from its label's chain; a chain that empties tombstones
   its key, so no empty chain stays filed. *)
let col_remove r ci row =
  let s = cfind ci (Rows.get r.arena row ci.col) in
  if s >= 0 then begin
    if ci.heads.(s) = row then begin
      let nx = ci.next.(row) in
      if nx >= 0 then ci.heads.(s) <- nx
      else begin
        ci.keys.(s) <- dtomb;
        ci.nkeys <- ci.nkeys - 1;
        ci.ntombs <- ci.ntombs + 1
      end
    end
    else begin
      let prev = cunlink ci.next row ci.heads.(s) in
      if prev >= 0 && ci.tails.(s) = row then ci.tails.(s) <- prev
    end
  end

(* Call [f] on each row chained under [key], in insertion order.  [f] must
   not mutate the indexed relation. *)
let citer ci key f =
  let s = cfind ci key in
  if s >= 0 then begin
    let next = ci.next in
    let row = ref (Array.unsafe_get ci.heads s) in
    while !row >= 0 do
      let cur = !row in
      row := Array.unsafe_get next cur;
      f cur
    done
  end

(* -- Index maintenance ------------------------------------------------------- *)

let index_after_insert r row =
  let idxs = r.indexes in
  for i = 0 to Array.length idxs - 1 do
    col_add r (Array.unsafe_get idxs i) row
  done;
  (match r.prefix_idx with
  | Some idx -> hadd idx (Rows.hash_prefix r.arena row) row
  | None -> ());
  match r.hinge_idx with
  | Some idx -> hadd idx (Rows.hash_hinge r.arena row) row
  | None -> ()

let index_before_remove r row =
  let idxs = r.indexes in
  for i = 0 to Array.length idxs - 1 do
    col_remove r (Array.unsafe_get idxs i) row
  done;
  (match r.prefix_idx with
  | Some idx -> hremove idx (Rows.hash_prefix r.arena row) row
  | None -> ());
  match r.hinge_idx with
  | Some idx -> hremove idx (Rows.hash_hinge r.arena row) row
  | None -> ()

(* -- Core insert / remove (cell-level) --------------------------------------- *)

(* [buf] must not alias this relation's own arena storage (the alloc may
   grow it); internal callers stage through [scratch] or read a foreign
   arena. *)
let insert_cells r buf off =
  let h = Rows.hash_ints buf ~off ~len:r.width in
  if dfind r h buf off >= 0 then -1
  else begin
    let row = Rows.alloc r.arena in
    Rows.write r.arena row buf off;
    dinsert r h row;
    index_after_insert r row;
    r.runs <- [];
    r.inserts <- r.inserts + 1;
    (match r.obs with Some o -> Tric_obs.Registry.incr o.o_inserts | None -> ());
    row
  end

(* Unfile the row from every index, then release the slot.  All hash
   recomputation happens before [Rows.free] — a freed slot's cells are
   dead the moment the freelist owns it. *)
let remove_row r row =
  dremove r (Rows.hash_row r.arena row) row;
  index_before_remove r row;
  Rows.free r.arena row;
  r.runs <- [];
  r.removes <- r.removes + 1;
  match r.obs with Some o -> Tric_obs.Registry.incr o.o_removes | None -> ()

let insert r t =
  if Tuple.width t <> r.width then invalid_arg "Relation.insert: width mismatch";
  fill_scratch r t;
  insert_cells r r.scratch 0 >= 0

let insert_all r ts = List.filter (fun t -> insert r t) ts

let remove r t =
  if Tuple.width t <> r.width then false
  else begin
    fill_scratch r t;
    let row = find_cells r r.scratch 0 in
    if row < 0 then false
    else begin
      remove_row r row;
      true
    end
  end

let remove_all r ts = List.filter (fun t -> remove r t) ts

let iter f r = Rows.iter_live (fun row -> f (row_tuple r row)) r.arena
let fold f r init =
  let acc = ref init in
  Rows.iter_live (fun row -> acc := f (row_tuple r row) !acc) r.arena;
  !acc

let to_list r = fold (fun t acc -> t :: acc) r []
let iter_rows f r = Rows.iter_live f r.arena

(* -- Row-level hot-path API --------------------------------------------------- *)

let insert_edge_row r ~src ~dst =
  if r.width <> 2 then invalid_arg "Relation.insert_edge_row: width <> 2";
  r.scratch.(0) <- Label.to_int src;
  r.scratch.(1) <- Label.to_int dst;
  insert_cells r r.scratch 0

(* Extend a parent row by one trailing label into this (one column wider)
   relation — the seeding/propagation step, staged through scratch so the
   parent's arena is never read after this arena grows. *)
let insert_extend r ~src ~row ~ext =
  if width src <> r.width - 1 then invalid_arg "Relation.insert_extend: bad parent width";
  Rows.blit_row src.arena row r.scratch 0;
  r.scratch.(r.width - 1) <- Label.to_int ext;
  insert_cells r r.scratch 0

(* Same step from a packed parent batch (cross-boundary deltas). *)
let insert_extend_packed r ~parents ~i ~ext =
  if Rows.packed_width parents <> r.width - 1 then
    invalid_arg "Relation.insert_extend_packed: bad parent width";
  Array.blit (Rows.packed_data parents) (i * (r.width - 1)) r.scratch 0 (r.width - 1);
  r.scratch.(r.width - 1) <- Label.to_int ext;
  insert_cells r r.scratch 0

let pack_rows r v = Rows.pack r.arena v

(* -- Deletion-support (prefix / hinge) indexes ------------------------------- *)

let ensure_prefix_idx r =
  match r.prefix_idx with
  | Some idx -> idx
  | None ->
    let idx : hash_index = Hashtbl.create (max 16 (cardinality r)) in
    Rows.iter_live (fun row -> hadd idx (Rows.hash_prefix r.arena row) row) r.arena;
    r.prefix_idx <- Some idx;
    idx

let ensure_hinge_idx r =
  match r.hinge_idx with
  | Some idx -> idx
  | None ->
    let idx : hash_index = Hashtbl.create (max 16 (cardinality r)) in
    Rows.iter_live (fun row -> hadd idx (Rows.hash_hinge r.arena row) row) r.arena;
    r.hinge_idx <- Some idx;
    idx

let count_delta_probe r =
  r.delta_probes <- r.delta_probes + 1;
  match r.obs with Some o -> Tric_obs.Registry.incr o.o_delta_probes | None -> ()

(* Rows of the bucket whose columns [lo ..] equal [buf] — the collision
   filter behind every hash-keyed probe. *)
let bucket_matches r idx h ~lo buf ~off ~len k =
  match Hashtbl.find_opt idx h with
  | None -> ()
  | Some bucket ->
    Rows.Vec.iter
      (fun row -> if Rows.equal_cols r.arena row ~lo buf ~off ~len then k row)
      bucket

let probe_prefix r p =
  if Tuple.width p <> r.width - 1 then invalid_arg "Relation.probe_prefix: bad prefix width";
  count_delta_probe r;
  let idx = ensure_prefix_idx r in
  let len = r.width - 1 in
  for i = 0 to len - 1 do
    r.scratch.(i) <- Label.to_int (Tuple.get p i)
  done;
  let h = Rows.hash_ints r.scratch ~off:0 ~len in
  let out = ref [] in
  bucket_matches r idx h ~lo:0 r.scratch ~off:0 ~len (fun row ->
      out := row_tuple r row :: !out);
  !out

let probe_hinge r ~src ~dst =
  if r.width < 2 then invalid_arg "Relation.probe_hinge: width < 2";
  count_delta_probe r;
  let idx = ensure_hinge_idx r in
  r.scratch.(0) <- Label.to_int src;
  r.scratch.(1) <- Label.to_int dst;
  let h = Rows.hash_ints r.scratch ~off:0 ~len:2 in
  let out = ref [] in
  bucket_matches r idx h ~lo:(r.width - 2) r.scratch ~off:0 ~len:2 (fun row ->
      out := row_tuple r row :: !out);
  !out

(* Hinge eviction: snapshot the doomed rows as a packed batch (they must
   be read before their slots return to the freelist), then drop them.
   One counted delta probe, like [probe_hinge]. *)
let evict_hinge r ~src ~dst =
  if r.width < 2 then invalid_arg "Relation.evict_hinge: width < 2";
  count_delta_probe r;
  let idx = ensure_hinge_idx r in
  r.scratch.(0) <- Label.to_int src;
  r.scratch.(1) <- Label.to_int dst;
  let h = Rows.hash_ints r.scratch ~off:0 ~len:2 in
  let doomed = Rows.Vec.create () in
  bucket_matches r idx h ~lo:(r.width - 2) r.scratch ~off:0 ~len:2 (fun row ->
      Rows.Vec.push doomed row);
  let packed = Rows.pack r.arena doomed in
  Rows.Vec.iter (fun row -> remove_row r row) doomed;
  packed

(* Prefix eviction: the extensions of a batch of doomed parent rows.  One
   counted probe per parent row (matching the per-tuple probes of the
   boxed path); parents are distinct rows, so the matched buckets are
   disjoint and the collected set needs no dedup. *)
let evict_prefixed r parents =
  if Rows.packed_width parents <> r.width - 1 then
    invalid_arg "Relation.evict_prefixed: bad parent width";
  let idx = ensure_prefix_idx r in
  let len = r.width - 1 in
  let data = Rows.packed_data parents in
  let doomed = Rows.Vec.create () in
  for i = 0 to Rows.packed_count parents - 1 do
    count_delta_probe r;
    let off = i * len in
    let h = Rows.hash_ints data ~off ~len in
    bucket_matches r idx h ~lo:0 data ~off ~len (fun row -> Rows.Vec.push doomed row)
  done;
  let packed = Rows.pack r.arena doomed in
  Rows.Vec.iter (fun row -> remove_row r row) doomed;
  packed

(* -- Column indexes (the caching switch) ------------------------------------- *)

let build_col_idx r col =
  let size = csize_for (cardinality r) in
  let ci =
    {
      col;
      keys = Array.make size dempty;
      heads = Array.make size (-1);
      tails = Array.make size (-1);
      nkeys = 0;
      ntombs = 0;
      next = Array.make (max 1 (Rows.capacity r.arena)) (-1);
    }
  in
  Rows.iter_live (fun row -> col_add r ci row) r.arena;
  r.rebuilds <- r.rebuilds + 1;
  (match r.obs with Some o -> Tric_obs.Registry.incr o.o_rebuilds | None -> ());
  ci

let rec find_col idxs col i =
  if i >= Array.length idxs then -1
  else if (Array.unsafe_get idxs i).col = col then i
  else find_col idxs col (i + 1)

let ensure_col_idx r col =
  let i = find_col r.indexes col 0 in
  if i >= 0 then Array.unsafe_get r.indexes i
  else begin
    let ci = build_col_idx r col in
    r.indexes <- Array.append r.indexes [| ci |];
    ci
  end

let probe_of r ci key =
  let out = ref [] in
  citer ci (Label.to_int key) (fun row -> out := row_tuple r row :: !out);
  !out

let index_on r ~col =
  if col < 0 || col >= r.width then invalid_arg "Relation.index_on: bad column";
  probe_of r (if r.cache then ensure_col_idx r col else build_col_idx r col)

let iter_col_rows r ~col key f =
  if not r.cache then invalid_arg "Relation.iter_col_rows: relation is not caching";
  citer (ensure_col_idx r col) (Label.to_int key) f

let probe_scan r ~col value =
  let v = Label.to_int value in
  let out = ref [] in
  Rows.iter_live
    (fun row -> if Rows.get r.arena row col = v then out := row_tuple r row :: !out)
    r.arena;
  !out

let scan_probing r ~col probe f =
  Rows.iter_live
    (fun row ->
      match probe (row_col r row col) with
      | [] -> ()
      | hits ->
        let t = row_tuple r row in
        List.iter (fun hit -> f t hit) hits)
    r.arena

(* -- Sorted runs and merge join ---------------------------------------------- *)

(* A run is built lazily over the current live rows — a cold-bucket
   compaction — and discarded by the next mutation.  Each fresh build is
   counted as a rebuild: it is the merge join's analogue of a hash-join
   build phase. *)
let sorted_run r ~col =
  if col < 0 || col >= r.width then invalid_arg "Relation.sorted_run: bad column";
  let rec find = function
    | [] -> None
    | (c, run) :: tl -> if c = col then Some run else find tl
  in
  match find r.runs with
  | Some run -> run
  | None ->
    let run = Array.make (cardinality r) 0 in
    let i = ref 0 in
    Rows.iter_live
      (fun row ->
        run.(!i) <- row;
        incr i)
      r.arena;
    Array.sort (Rows.compare_on r.arena ~col) run;
    r.runs <- (col, run) :: r.runs;
    r.rebuilds <- r.rebuilds + 1;
    (match r.obs with Some o -> Tric_obs.Registry.incr o.o_rebuilds | None -> ());
    run

let merge_join ~left ~lcol ~right ~rcol f =
  let la = sorted_run left ~col:lcol and ra = sorted_run right ~col:rcol in
  let nl = Array.length la and nr = Array.length ra in
  let lv i = Rows.get left.arena la.(i) lcol in
  let rv j = Rows.get right.arena ra.(j) rcol in
  let i = ref 0 and j = ref 0 in
  while !i < nl && !j < nr do
    let a = lv !i and b = rv !j in
    if a < b then incr i
    else if a > b then incr j
    else begin
      let ie = ref (!i + 1) in
      while !ie < nl && lv !ie = a do
        incr ie
      done;
      let je = ref (!j + 1) in
      while !je < nr && rv !je = b do
        incr je
      done;
      for x = !i to !ie - 1 do
        for y = !j to !je - 1 do
          f la.(x) ra.(y)
        done
      done;
      i := !ie;
      j := !je
    end
  done

(* -- Stats ------------------------------------------------------------------- *)

let stats_rebuilds r = r.rebuilds
let stats_delta_probes r = r.delta_probes
let stats_inserts r = r.inserts
let stats_removes r = r.removes

let stats_index_buckets r = Array.fold_left (fun acc ci -> acc + ci.nkeys) 0 r.indexes

let clear r =
  (* Release every slot back through the normal path so the arena stays
     audit-coherent (all dead slots on the freelist). *)
  let rows = Rows.Vec.create () in
  Rows.iter_live (fun row -> Rows.Vec.push rows row) r.arena;
  Rows.Vec.iter (fun row -> Rows.free r.arena row) rows;
  r.dslots <- Array.make 16 dempty;
  r.dcount <- 0;
  r.dtombs <- 0;
  r.indexes <- [||];
  r.prefix_idx <- None;
  r.hinge_idx <- None;
  r.runs <- [];
  r.inserts <- 0;
  r.removes <- 0

(* -- Audit ------------------------------------------------------------------ *)

(* One maintained hash-keyed index (dedup / prefix / hinge) against the
   live row set: buckets must be non-empty, hold only live rows (a dead
   row id is an arena-ownership violation, not a mere filing error), file
   rows under the hash of their own projection, and cover every live row. *)
let audit_hash_index ~what ~hash_of (idx : hash_index) r report =
  Hashtbl.iter
    (fun h bucket ->
      if Rows.Vec.length bucket = 0 then
        report "index-coherence" (Printf.sprintf "%s: empty bucket %d kept alive" what h)
      else begin
        let seen = Hashtbl.create (2 * Rows.Vec.length bucket) in
        Rows.Vec.iter
          (fun row ->
            if not (Rows.is_live r.arena row) then
              report "arena-integrity"
                (Printf.sprintf "%s: bucket %d holds dangling row id %d" what h row)
            else begin
              if hash_of row <> h then
                report "index-coherence"
                  (Format.asprintf "%s: row %d (%a) filed under wrong bucket %d" what row
                     Tuple.pp (row_tuple r row) h);
              if Hashtbl.mem seen row then
                report "index-coherence"
                  (Printf.sprintf "%s: bucket %d holds row %d twice" what h row)
              else Hashtbl.add seen row ()
            end)
          bucket
      end)
    idx;
  Rows.iter_live
    (fun row ->
      let h = hash_of row in
      let found =
        match Hashtbl.find_opt idx h with
        | Some bucket -> Rows.Vec.exists (fun row' -> row' = row) bucket
        | None -> false
      in
      if not found then
        report "index-coherence"
          (Format.asprintf "%s: live row %d (%a) missing from its bucket" what row Tuple.pp
             (row_tuple r row)))
    r.arena

(* One chained column index against the live row set: every filed key is
   findable by probing and has a non-empty chain whose [tails] entry is
   its last row; every chained row is live (else an arena-ownership
   violation), carries the chain's key in the indexed column and is
   chained exactly once; the key/tombstone counts match the arrays; and
   every live row is reachable.  A walk stops at the first row it has
   already seen, so it takes at most high-water steps and a cycle cannot
   hang the audit. *)
let audit_col_index ci r report =
  let what = Printf.sprintf "column-%d index" ci.col in
  let hw = Rows.high_water r.arena in
  let seen = Bytes.make hw '\000' in
  let filed = ref 0 and tombs = ref 0 in
  let rec walk s key prev row =
    if row < 0 then begin
      if ci.tails.(s) <> prev then
        report "index-coherence"
          (Printf.sprintf "%s: key %d ends at row %d but its tail says %d" what key prev
             ci.tails.(s))
    end
    else if row >= Array.length ci.next || not (Rows.is_live r.arena row) then
      report "arena-integrity"
        (Printf.sprintf "%s: chain of key %d holds dangling row id %d" what key row)
    else if Bytes.get seen row <> '\000' then
      report "index-coherence"
        (Printf.sprintf "%s: row %d chained twice (reached again under key %d)" what row key)
    else begin
      Bytes.set seen row '\001';
      if Rows.get r.arena row ci.col <> key then
        report "index-coherence"
          (Format.asprintf "%s: row %d (%a) filed under wrong key %d" what row Tuple.pp
             (row_tuple r row) key);
      walk s key row ci.next.(row)
    end
  in
  Array.iteri
    (fun s key ->
      if key = dtomb then incr tombs
      else if key <> dempty then begin
        incr filed;
        if cfind ci key <> s then
          report "index-coherence"
            (Printf.sprintf "%s: key %d in slot %d is not findable" what key s);
        if ci.heads.(s) < 0 then
          report "index-coherence" (Printf.sprintf "%s: empty chain of key %d kept alive" what key)
        else walk s key (-1) ci.heads.(s)
      end)
    ci.keys;
  if !filed <> ci.nkeys then
    report "index-coherence"
      (Printf.sprintf "%s: %d filed key(s) but count says %d" what !filed ci.nkeys);
  if !tombs <> ci.ntombs then
    report "index-coherence"
      (Printf.sprintf "%s: %d tombstone(s) but count says %d" what !tombs ci.ntombs);
  Rows.iter_live
    (fun row ->
      if Bytes.get seen row = '\000' then
        report "index-coherence"
          (Format.asprintf "%s: live row %d (%a) is not reachable" what row Tuple.pp
             (row_tuple r row)))
    r.arena

(* The open-addressing dedup table against the live row set: every filed
   slot holds a live row (a dead or out-of-range id is an arena-ownership
   violation), no row is filed twice, the slot/tombstone accounting
   matches the array, and every live row is findable by probing its own
   cell content. *)
let audit_dedup r report =
  let filed = ref 0 and tombs = ref 0 in
  let seen = Hashtbl.create (2 * r.dcount) in
  Array.iter
    (fun s ->
      if s = dtomb then incr tombs
      else if s <> dempty then begin
        incr filed;
        if not (Rows.is_live r.arena s) then
          report "arena-integrity"
            (Printf.sprintf "dedup set: slot holds dangling row id %d" s)
        else if Hashtbl.mem seen s then
          report "index-coherence" (Printf.sprintf "dedup set: row %d filed twice" s)
        else Hashtbl.add seen s ()
      end)
    r.dslots;
  if !filed <> r.dcount then
    report "index-coherence"
      (Printf.sprintf "dedup set: %d filed slot(s) but count says %d" !filed r.dcount);
  if !tombs <> r.dtombs then
    report "index-coherence"
      (Printf.sprintf "dedup set: %d tombstone(s) but count says %d" !tombs r.dtombs);
  Rows.iter_live
    (fun row ->
      Rows.blit_row r.arena row r.scratch 0;
      if dfind r (Rows.hash_row r.arena row) r.scratch 0 < 0 then
        report "index-coherence"
          (Format.asprintf "dedup set: live row %d (%a) is not findable" row Tuple.pp
             (row_tuple r row)))
    r.arena

let audit r =
  let findings = ref [] in
  let report inv detail = findings := (inv, detail) :: !findings in
  List.iter (fun (inv, detail) -> report inv detail) (Rows.audit r.arena);
  if r.inserts - r.removes <> cardinality r then
    report "stats"
      (Printf.sprintf "inserts - removes = %d - %d but cardinality is %d" r.inserts
         r.removes (cardinality r));
  audit_dedup r report;
  Array.iter (fun ci -> audit_col_index ci r report) r.indexes;
  (match r.prefix_idx with
  | Some idx ->
    audit_hash_index ~what:"prefix index" ~hash_of:(Rows.hash_prefix r.arena) idx r report
  | None -> ());
  (match r.hinge_idx with
  | Some idx ->
    audit_hash_index ~what:"hinge index" ~hash_of:(Rows.hash_hinge r.arena) idx r report
  | None -> ());
  List.rev !findings

(* -- Test-only corruption hooks --------------------------------------------- *)

module Corrupt = struct
  (* The first filed key slot of any column index. *)
  let first_filed r =
    let rec go ci s =
      if s >= Array.length ci.keys then None
      else if ci.keys.(s) >= 0 then Some (ci, s)
      else go ci (s + 1)
    in
    Array.fold_left
      (fun acc ci -> match acc with Some _ -> acc | None -> go ci 0)
      None r.indexes

  let drop_index_bucket r =
    let drop_hash_tbl = function
      | Some (idx : hash_index) -> (
        match Hashtbl.fold (fun k _ acc -> match acc with None -> Some k | s -> s) idx None with
        | Some k ->
          Hashtbl.remove idx k;
          true
        | None -> false)
      | None -> false
    in
    match first_filed r with
    | Some (ci, s) ->
      (* Tombstone the key with its counts kept in step: only the chain's
         rows go missing. *)
      ci.keys.(s) <- dtomb;
      ci.nkeys <- ci.nkeys - 1;
      ci.ntombs <- ci.ntombs + 1;
      true
    | None -> drop_hash_tbl r.prefix_idx || drop_hash_tbl r.hinge_idx

  let break_col_chain r =
    match first_filed r with
    | Some (ci, s) ->
      ci.heads.(s) <- ci.next.(ci.heads.(s));
      true
    | None -> false

  let phantom_tuple r t =
    (* Allocate the row and file it in the dedup set only — every other
       index and every counter is bypassed. *)
    if Tuple.width t = r.width && not (mem r t) then begin
      fill_scratch r t;
      let row = Rows.alloc r.arena in
      Rows.write r.arena row r.scratch 0;
      dinsert r (Rows.hash_row r.arena row) row
    end

  let desync_counters r = r.inserts <- r.inserts + 1
  let leak_arena_row r = Rows.Corrupt.leak_live_row r.arena

  let dangle_bucket_row r =
    (* File an unallocated slot id in the dedup set: a row id no arena
       owner ever handed out.  Filing into an empty slot never breaks an
       existing probe chain, so the only divergence is the dangling id. *)
    if r.dcount = 0 then false
    else begin
      let ghost = Rows.high_water r.arena in
      if 2 * (r.dcount + r.dtombs + 1) > Array.length r.dslots then
        drehash r (dsize_for (r.dcount + 1));
      let mask = Array.length r.dslots - 1 in
      let rec place i =
        if r.dslots.(i) = dempty then r.dslots.(i) <- ghost
        else place ((i + 1) land mask)
      in
      place (ghost land mask);
      r.dcount <- r.dcount + 1;
      true
    end
end

let pp fmt r =
  Format.fprintf fmt "@[<v>relation w=%d |%d|" r.width (cardinality r);
  iter (fun t -> Format.fprintf fmt "@,  %a" Tuple.pp t) r;
  Format.fprintf fmt "@]"
