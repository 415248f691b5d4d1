(** Packed row arena: the width-stride flat [int array] store behind
    {!Relation}.

    A tuple of the hot path is a {e row id} — an [int] naming a
    width-sized slice of one flat data array — instead of a boxed
    [Label.t array].  Columns are read by offset (labels are already
    interned ints), freed slots are recycled through a freelist, and
    whole row batches cross shard boundaries only as {!packed} flat
    copies, never as row ids into a foreign arena.

    The module is deliberately label-agnostic: it stores and compares
    raw ints.  {!Relation} owns the [Label.t]/[Tuple.t] conversions at
    its boundary. *)

(** Growable int vector with swap-remove — the arena freelist, the bucket
    representation of {!Relation}'s prefix/hinge delta indexes, and the
    engines' row-id batches. *)
module Vec : sig
  type t

  val create : ?cap:int -> unit -> t
  val length : t -> int
  val get : t -> int -> int
  val push : t -> int -> unit

  val swap_remove : t -> int -> unit
  (** Drop slot [i] in O(1) by moving the last element into it — bucket
      order is not part of any observable contract. *)

  val remove_value : t -> int -> bool
  (** Swap-remove the first slot holding the value; [false] if absent. *)

  val iter : (int -> unit) -> t -> unit
  val exists : (int -> bool) -> t -> bool
  val to_list : t -> int list
  val clear : t -> unit
  val words : t -> int
  (** Approximate heap words held by the backing array. *)
end

type t
(** A width-stride arena.  Row [r] occupies cells
    [r * width .. r * width + width - 1] of one flat data array. *)

val create : ?expect:int -> width:int -> unit -> t
(** [expect] pre-sizes the arena for that many rows (default small).
    @raise Invalid_argument if [width < 1]. *)

val width : t -> int
val live : t -> int
(** Rows currently allocated (and not freed). *)

val capacity : t -> int
(** Row slots the backing array can hold before the next grow. *)

val free_count : t -> int
(** Freelist length — freed slots awaiting reuse. *)

val high_water : t -> int
(** Slots ever touched: every live or freed row id is [< high_water]. *)

val reserve : t -> int -> unit
(** [reserve a n] grows the backing array (doubling) until [n] more rows
    fit above the high-water mark without further reallocation. *)

val alloc : t -> int
(** Claim a row slot (recycling the freelist first) and mark it live.
    The row's cells keep whatever was last written; callers must
    {!set}/{!write} before reading. *)

val free : t -> int -> unit
(** Return a live row to the freelist.
    @raise Invalid_argument if the row is not live. *)

val is_live : t -> int -> bool
val get : t -> int -> int -> int
(** [get a row col]. *)

val set : t -> int -> int -> int -> unit
(** [set a row col v]. *)

val write : t -> int -> int array -> int -> unit
(** [write a row src off] blits [width] ints from [src] at [off] into
    the row. *)

val blit_row : t -> int -> int array -> int -> unit
(** [blit_row a row dst off] copies the row's cells out. *)

val read : t -> int -> int array
(** Fresh width-sized copy of the row's cells (boundary conversions). *)

(** {1 Hashing and comparison}

    [hash_*] reproduce [Tuple.hash] exactly (seed 17, multiplier
    1000003, masked to [max_int]) over the given column range, so a
    packed index and a boxed [Tuple.Tbl] bucket tuples identically. *)

val hash_ints : int array -> off:int -> len:int -> int
val hash_cols : t -> int -> lo:int -> len:int -> int
val hash_row : t -> int -> int
(** All columns. *)

val hash_prefix : t -> int -> int
(** First [width - 1] columns. *)

val hash_hinge : t -> int -> int
(** Last two columns. @raise Invalid_argument on width < 2. *)

val equal_cols : t -> int -> lo:int -> int array -> off:int -> len:int -> bool
(** [equal_cols a row ~lo buf ~off ~len]: the row's columns
    [lo .. lo+len-1] equal [buf.(off) .. buf.(off+len-1)]. *)

val equal_rows : t -> int -> int -> bool
(** Full-width cell equality of two rows of the same arena. *)

val compare_on : t -> col:int -> int -> int -> int
(** Order by the given column, ties broken by full row content — the
    sort key of {!Relation}'s sorted runs, total on distinct rows. *)

val iter_live : (int -> unit) -> t -> unit
(** Every live row id, ascending. *)

(** {1 Packed row batches}

    A [packed] value is a standalone flat copy of a set of rows — no row
    ids, no reference to the source arena — so deltas can cross shard
    boundaries without leaking arena ownership (the [shard-escape]
    static rule bans [Rows.t] itself from leaving the core). *)

type packed

val pack : t -> Vec.t -> packed
(** Snapshot the rows named by the vector, in vector order. *)

val packed_empty : width:int -> packed

val packed_concat : width:int -> packed list -> packed
(** Flatten several batches of the same width into one.
    @raise Invalid_argument on width mismatch. *)

val packed_width : packed -> int
val packed_count : packed -> int
val packed_get : packed -> int -> int -> int
(** [packed_get p i col] — column of the [i]-th packed row. *)

val packed_row : packed -> int -> int array
(** Fresh copy of the [i]-th row's cells. *)

val packed_data : packed -> int array
(** The backing flat array ([packed_count * packed_width] cells), for
    bulk hashing; treat as read-only. *)

val words : t -> int
(** Approximate heap words held by the arena (data + freelist +
    liveness map). *)

val audit : t -> (string * string) list
(** Arena-integrity self-check, as [(invariant class, detail)] pairs
    (class is always ["arena-integrity"]): no live row on the freelist,
    no freelist entry out of range or duplicated, every dead slot below
    the high-water mark on the freelist, and the live counter equal to
    the liveness map's population. *)

module Corrupt : sig
  (** Test-only corruption hooks for the audit mutation tests. *)

  val leak_live_row : t -> bool
  (** Push a live row onto the freelist without freeing it; [false] if
      no row is live. *)

  val lose_free_slot : t -> bool
  (** Drop one entry from the freelist, stranding a dead slot; [false]
      if the freelist is empty. *)
end

val pp : Format.formatter -> t -> unit
