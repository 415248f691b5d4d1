(** Joins of per-covering-path results into complete answers.

    The final phase of query answering (Fig. 8 lines 8–13) joins the
    per-covering-path results of a query.  Each covering path contributes
    a set of partial embeddings all binding the same vid set; two path
    results join on their shared vids (the paper's "path intersections").
    TRIC keeps those results as packed {!Cache}s and joins them with the
    delta rule ({!add_deltas}, {!remove_deltas}); the list-based {!join}
    and {!join_many} serve the INV/INC baselines and as test oracles. *)

val join : Embedding.t list -> Embedding.t list -> Embedding.t list
(** Hash join on the shared bound vids of the two sides (computed from
    their first elements; all embeddings of one side must bind the same
    vids).  With no shared vids this is the cartesian product.  Returns
    merged embeddings, deduplicated. *)

val join_many : Embedding.t list list -> Embedding.t list
(** Multi-way join.  Returns [] when the operand list is empty or any
    operand is empty.  Otherwise it starts from the first operand and
    repeatedly joins the operand sharing the most vids with the
    accumulated binding set (ties towards the smaller operand, then input
    order), so a cartesian operand is taken only when none shares.
    Results are deduplicated by each pairwise {!join}. *)

val dedup : Embedding.t list -> Embedding.t list

(** {1 Packed per-path caches}

    TRIC's per-query, per-covering-path result (the paper's matV[P_i])
    kept as flat ints: a path-width-stride [int array] plus a row count,
    grown by doubling and never shrunk.  Rows arrive straight from the
    shards' {!Rows.packed} deltas; a row whose repeated-vid columns
    disagree (a cycle's closing vertex bound to two labels) is never
    stored.  A correct cache holds exactly the terminal view's rows, each
    once, in arrival order. *)
module Cache : sig
  type t

  val create : vids:int array -> t
  (** Empty cache for a path whose column [c] binds pattern vid
      [vids.(c)].  The cache keeps [vids] without copying (the caller
      must not mutate it) and allocates no row storage until the first
      append.  @raise Invalid_argument on an empty vid sequence. *)

  val count : t -> int
  (** Rows held. *)

  val append : t -> Rows.packed -> unit
  (** Copy the batch's consistent rows to the end, in batch order.
      @raise Invalid_argument on a batch width other than the path's. *)

  val subtract : t -> Rows.packed -> int
  (** Remove one occurrence of each consistent row of the batch, keeping
      the survivors in order; returns the number of rows removed.  Batch
      rows that are not cached are ignored.
      @raise Invalid_argument on a batch width other than the path's. *)

  val to_embeddings : width:int -> t -> Embedding.t list
  (** Every row as a partial embedding of a [width]-vertex pattern, in
      row order — the cold audit/probe path. *)

  (** Test-only corruption hooks for the cache-coherence mutation tests. *)
  module Corrupt : sig
    val drop_row : t -> bool
    (** Forget the last row; [false] if the cache is empty. *)

    val duplicate_row : t -> bool
    (** Append a second copy of the first row; [false] if the cache is
        empty. *)
  end
end

(** {1 Joins over packed caches}

    One query's caches, one per covering path (index = path index), all
    over the same [width]-vertex pattern.  Each join extends a set of
    boxed embeddings by one cache at a time in greedy order — most
    shared vids first, then the fewest rows — keyed on the cache columns
    whose vid is already bound: a nested loop comparing key cells in
    place for at most 8 embeddings or no shared vid, otherwise a hash
    table over the embeddings probed by a scan of the cache's cells.
    Only total embeddings are returned. *)

val join_caches : width:int -> Cache.t array -> Embedding.t list
(** Every total embedding the caches join into (the query's full current
    result); [] if any cache is empty.  Duplicate-free when the caches
    are. *)

val add_deltas : width:int -> Cache.t array -> Rows.packed list array -> Embedding.t list
(** [add_deltas ~width caches deltas] appends [deltas.(i)] (new terminal
    rows of path [i]) to cache [i] and returns the matches the additions
    create.  Paths are processed in index order: path [i]'s delta is
    appended, then joined against the other caches as they stand — paths
    before [i] already hold their new rows, paths after it only their old
    ones.  That is the first-order delta rule
    ΔQ = Σᵢ P₁ⁿᵉʷ…Pᵢ₋₁ⁿᵉʷ·ΔPᵢ·Pᵢ₊₁ᵒˡᵈ…Pₖᵒˡᵈ, which finds each new match
    exactly once provided the delta rows are new and distinct (as
    terminal-view insertions are), so no deduplication is needed.  Only
    the delta rows are boxed, and only when every other cache is
    non-empty. *)

val remove_deltas :
  width:int -> Cache.t array -> Rows.packed list array -> Embedding.t list * int
(** [remove_deltas ~width caches deltas] subtracts [deltas.(i)] (rows
    evicted from path [i]'s terminal view) from cache [i] and returns the
    matches the removals destroy, with the number of rows subtracted.
    Paths are processed in index order: path [i]'s dead rows are first
    joined against the other caches' current state, then subtracted —
    the mirror of {!add_deltas}, so each destroyed match is found exactly
    once. *)
