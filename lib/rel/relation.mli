(** Materialized views.

    A relation is a deduplicated bag of fixed-width tuples with optional
    {e cached} hash indexes on columns.

    Caching is the "+" distinction of the paper (§4.2 "Caching"): during a
    hash join the build phase constructs a hash table keyed by the join
    column.  A non-caching engine (TRIC, INV, INC) rebuilds that table on
    every join operation and discards it; a caching engine (TRIC+, INV+,
    INC+) keeps it alive and maintains it incrementally on insertion.
    [index_on] exposes exactly that behaviour switch.

    {b Storage.} Tuples live in a packed {!Rows.t} arena (width-stride
    flat [int array], freelist-recycled): a stored tuple is a row id, and
    every index files row ids.  The dedup set is an open-addressing table
    of row ids; each cached column index is an open-addressing table from
    the column's label to a chain of rows threaded through one [next]
    array indexed by row id; the prefix/hinge delta indexes are hash
    buckets of row ids ({!Rows.Vec.t}).  The boxed [Tuple.t] remains the boundary type; conversion happens only
    at this module's edge.  Each relation owns its arena: row ids are
    meaningless outside it, and batches cross shard boundaries only as
    {!Rows.packed} flat copies. *)

open Tric_graph

type t

type obs
(** Telemetry hooks: four counter cells ([_inserts_total],
    [_removes_total], [_rebuilds_total], [_delta_probes_total] under a
    common prefix), resolved once against a registry and shared by every
    relation of one family (e.g. all node views of a shard). *)

val make_obs : Tric_obs.Registry.t -> prefix:string -> stable:bool -> obs
(** [stable] declares whether the counts are a pure function of the
    update stream at any shard count (node views: yes; base views: no —
    a key's base view is duplicated on every shard that mentions it). *)

val create : ?cache:bool -> ?obs:obs -> ?expect:int -> width:int -> unit -> t
(** [cache] defaults to [false]; [obs] to no telemetry.  [expect]
    pre-sizes the arena and dedup table for that many rows, so bulk loads
    (batch windows) skip the rehash-and-copy growth ladder. *)

val width : t -> int
val cardinality : t -> int
val is_empty : t -> bool
val mem : t -> Tuple.t -> bool

val reserve : t -> int -> unit
(** Pre-grow the arena for [n] further insertions (batch pre-sizing). *)

val mem_stats : t -> int * int * int
(** [(arena capacity, live rows, freelist length)] — the memory
    footprint triple surfaced per shard by [tric_cli stats]. *)

val insert : t -> Tuple.t -> bool
(** [true] iff the tuple was new.  @raise Invalid_argument on width
    mismatch. *)

val insert_all : t -> Tuple.t list -> Tuple.t list
(** Inserts all; returns the newly inserted ones, in input order. *)

val remove : t -> Tuple.t -> bool
(** Used by edge deletion (§4.3). *)

val remove_all : t -> Tuple.t list -> Tuple.t list
(** Removes all; returns the tuples that were actually present (and are now
    gone), in input order — the bulk counterpart of {!insert_all}, used by
    batched deletion propagation. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list

(** {1 Row-level hot path}

    The packed face of the relation: engines that live inside one shard
    address tuples as row ids and never box.  Row ids are only valid
    against the relation that produced them, and only until that row is
    removed. *)

val iter_rows : (int -> unit) -> t -> unit
(** Every live row id, ascending — the allocation-free walk behind the
    audit path. *)

val row_col : t -> int -> int -> Label.t
(** [row_col r row col] — one column, no tuple boxing. *)

val row_tuple : t -> int -> Tuple.t
(** Boxed copy of a live row (boundary conversions only). *)

val insert_edge_row : t -> src:Label.t -> dst:Label.t -> int
(** Insert a two-column row; the new row id, or [-1] if it was already
    present.  @raise Invalid_argument if the width is not 2. *)

val insert_extend : t -> src:t -> row:int -> ext:Label.t -> int
(** [insert_extend r ~src ~row ~ext] inserts [src]'s row extended by one
    trailing label — the seeding/propagation step.  The new row id, or
    [-1] on duplicate.  @raise Invalid_argument unless
    [width src = width r - 1]. *)

val insert_extend_packed : t -> parents:Rows.packed -> i:int -> ext:Label.t -> int
(** Same step from the [i]-th row of a packed parent batch. *)

val pack_rows : t -> Rows.Vec.t -> Rows.packed
(** Flat standalone copy of the named rows — the only form in which a
    batch of tuples may leave the owning shard. *)

val iter_col_rows : t -> col:int -> Label.t -> (int -> unit) -> unit
(** [iter_col_rows r ~col key f] calls [f] on every live row whose column
    [col] holds [key], in insertion order (rows already present when the
    index was first built come first, in row-id order) — the cache-mode
    probe of the maintained column index, allocation-free; an unseen key
    calls nothing.  [f] must not mutate [r].  Counted like {!index_on} (one
    rebuild on the first build of the column's index).
    @raise Invalid_argument if the relation does not cache. *)

val evict_hinge : t -> src:Label.t -> dst:Label.t -> Rows.packed
(** Remove (and return, packed) all tuples whose last two columns are
    [(src, dst)] — the deletion-path counterpart of {!probe_hinge},
    counted as one delta probe.  @raise Invalid_argument on width < 2. *)

val evict_prefixed : t -> Rows.packed -> Rows.packed
(** Remove (and return, packed) all tuples extending any row of the
    doomed parent batch, one counted delta probe per parent row.
    @raise Invalid_argument unless the batch width is [width - 1]. *)

val merge_join : left:t -> lcol:int -> right:t -> rcol:int -> (int -> int -> unit) -> unit
(** [merge_join ~left ~lcol ~right ~rcol f] calls [f lrow rrow] for every
    pair of rows agreeing on the join columns, by merging the two
    relations' sorted runs — no hash table on either side.  Runs are
    compacted lazily per column, discarded on any mutation, and each
    fresh compaction counts as one rebuild (the merge join's analogue of
    a hash-join build phase).  [f] must not mutate either relation. *)

type probe = Label.t -> Tuple.t list
(** Probe phase of a hash join: all tuples whose indexed column holds the
    given label. *)

val index_on : t -> col:int -> probe
(** The build phase of one hash join on column [col].

    Without caching, this scans the relation and builds an ephemeral hash
    table — O(cardinality) on {e every} call, the cost the "+" engines
    avoid.  With caching, the table is built on first use, maintained
    incrementally by {!insert}/{!remove}, and returned for free
    afterwards.  The returned probe must not outlive the next mutation in
    non-caching mode (engines use it within a single join operation). *)

val probe_scan : t -> col:int -> Tric_graph.Label.t -> Tuple.t list
(** One-shot probe without building any index: scan the relation and
    filter on the column.  This is the paper's hash join with the build
    side being the {e other} (smaller) operand — what the non-caching
    engines do when joining a large view against a single update. *)

val scan_probing :
  t -> col:int -> (Tric_graph.Label.t -> 'a list) -> (Tuple.t -> 'a -> unit) -> unit
(** [scan_probing r ~col probe f]: scan the relation once, and for every
    tuple call [f] with each hit of [probe] on the tuple's [col] value —
    the probe phase of a hash join whose build side is the (small) table
    behind [probe]. *)

val probe_prefix : t -> Tuple.t -> Tuple.t list
(** [probe_prefix r p] — all tuples whose first [width - 1] columns equal
    the prefix tuple [p].  Backed by a maintained index that exists in
    {e both} cache modes (unlike [index_on], which is ephemeral without
    caching): it is built lazily on the first probe and kept up to date by
    {!insert}/{!remove} afterwards, so deletion propagation (§4.3) finds a
    doomed parent tuple's extensions by lookup instead of scanning the
    view.  Add-only workloads never pay for it.
    @raise Invalid_argument if [p]'s width is not [width - 1]. *)

val probe_hinge : t -> src:Label.t -> dst:Label.t -> Tuple.t list
(** [probe_hinge r ~src ~dst] — all tuples whose last two columns are
    [(src, dst)], i.e. the chain tuples whose final edge is the given
    concrete edge.  Maintained like the prefix index (lazy build, then
    incremental in both cache modes).
    @raise Invalid_argument on width < 2. *)

val stats_rebuilds : t -> int
(** How many index builds this relation has performed — ephemeral
    [index_on] tables in non-caching mode, first builds of cached column
    indexes, and sorted-run compactions for {!merge_join}.  The work
    caching saves. *)

val stats_delta_probes : t -> int
(** How many prefix/hinge index lookups served the deletion path — each one
    replaces a full-view scan. *)

val stats_index_buckets : t -> int
(** Total filed keys across the cached column indexes — the distinct
    labels of the live rows, per indexed column (tests: a removal that
    empties a key's chain must tombstone the key rather than keep an
    empty chain filed). *)

val stats_inserts : t -> int
(** Lifetime count of successful {!insert}s (duplicates excluded).  The
    accounting identity [stats_inserts - stats_removes = cardinality] is
    one of the invariants {!audit} certifies. *)

val stats_removes : t -> int
(** Lifetime count of successful {!remove}s (absent tuples excluded). *)

val audit : t -> (string * string) list
(** Self-check of every relation-internal invariant, as
    [(invariant class, detail)] pairs — empty when clean.  Classes:
    ["arena-integrity"] (the {!Rows.audit} freelist/liveness invariants,
    plus: no index bucket or chain holds a dangling — dead or
    never-allocated — row id), ["index-coherence"] (every maintained
    index — dedup set, cached column indexes, prefix index, hinge index —
    files exactly the live rows under their own keys, with no duplicates
    or empty buckets; a column index's chains end at their [tails] entry
    and its key/tombstone counts match its slots),
    and ["stats"] (the insert/remove accounting identity).  Pure
    observation: never builds indexes that are not already live, and
    never mutates the relation. *)

module Corrupt : sig
  (** Test-only corruption hooks: each deliberately breaks exactly one
      invariant class so the mutation tests can prove {!audit} detects it.
      Never call these outside tests. *)

  val drop_index_bucket : t -> bool
  (** Delete one whole bucket from a live maintained index (cached column
      index first — its key is tombstoned with the counts kept in step —
      then prefix/hinge).  [false] if no index is built. *)

  val break_col_chain : t -> bool
  (** Splice the head row out of one cached column index's chain, leaving
      the row live but unreachable.  [false] if no column index files a
      key. *)

  val phantom_tuple : t -> Tuple.t -> unit
  (** Allocate a row and file it in the dedup set {e bypassing} every
      other index and every counter — the "skewed view" corruption. *)

  val desync_counters : t -> unit
  (** Bump the insert counter without inserting anything. *)

  val leak_arena_row : t -> bool
  (** Push a live row onto the freelist without freeing it ({!Rows.Corrupt.leak_live_row});
      [false] if the relation is empty. *)

  val dangle_bucket_row : t -> bool
  (** File a never-allocated row id in a dedup bucket; [false] if the
      relation is empty. *)
end

val clear : t -> unit
(** Drop every tuple and reset the insert/remove counters (rebuild and
    delta-probe counters survive — they describe lifetime work). *)

val pp : Format.formatter -> t -> unit
