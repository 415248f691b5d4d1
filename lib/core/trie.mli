(** The trie forest of TRIC (§4.1 Step 2, Fig. 6).

    Each trie indexes covering paths as words over generic edge keys
    ({!Tric_query.Ekey}).  A node at depth [d] represents the chain of the
    [d+1] keys on its root path and owns the materialized view of that
    chain — a relation of width [d+2] (the chain's vertices).  Two covering
    paths (from any queries) with a common prefix share the prefix's nodes
    {e and} their views: this sharing is the clustering the paper's speedups
    come from.

    The forest also owns:
    - [rootInd]: key of a first path edge → trie root;
    - [edgeInd]: key → every node carrying that key, across all tries,
      bucketed by depth (the flattened form of the paper's "edgeInd + DFS
      locate" — it enumerates exactly the nodes the paper's traversal
      finds);
    - the base views [matV[e]]: key → width-2 relation of all updates that
      matched the key so far. *)

open Tric_query
open Tric_rel

type node

val node_id : node -> int
val node_key : node -> Ekey.t
val node_depth : node -> int
(** Root depth is 0; the node's view has width [depth + 2]. *)

val node_view : node -> Relation.t
val node_parent : node -> node option

val node_children : node -> node list
(** A fresh list copy of the children — for cold paths (audit, printing).
    The answering walks use {!iter_children}. *)

val iter_children : (node -> unit) -> node -> unit
(** The children in insertion order, read in place. *)

val registrations : node -> (int * int) list
(** [(query id, covering-path index)] pairs registered at this node — the
    paper's query identifiers stored "at the last node of the trie path". *)

val is_registered : node -> bool
(** Whether any registration sits here — without building the list. *)

val deregister : node -> qid:int -> unit
(** Drop every registration of the given query id at this node (other
    queries sharing the terminal are untouched).  Needed when a query is
    removed: a stale registration would attribute later deltas to a
    re-added query with the same id. *)

type t

val create : ?id_base:int -> ?id_stride:int -> ?obs:Tric_obs.Registry.t -> cache:bool -> unit -> t
(** [cache] is propagated to every view (TRIC+ vs TRIC).

    [obs], when given, instruments every view against that registry:
    node views under [tric_view_*] (stable — nodes are partitioned across
    shards), base views under [tric_base_*] (unstable — a key's base view
    is duplicated on every shard whose forest mentions it).

    [id_base]/[id_stride] (defaults 0/1) parameterise node-id allocation:
    node [k] gets id [id_base + k * id_stride].  Shard [s] of an
    [n]-sharded engine passes [~id_base:s ~id_stride:n] so node ids stay
    globally unique across the per-shard forests without any shared
    counter — the audit layer keys its expected-registration map by node
    id across all forests at once.
    @raise Invalid_argument unless [0 <= id_base < id_stride]. *)

val insert_path : t -> Ekey.t list -> qid:int -> path_index:int -> node
(** Index one covering path: walk/extend the forest along the key word,
    register [(qid, path_index)] at the terminal node, make sure base views
    exist for all keys, and seed any freshly created node's view from its
    parent's view and the key's base view (so that queries added mid-stream
    observe state already retained for earlier queries).  Registration is
    idempotent: inserting the same [(qid, path_index)] at the same terminal
    twice keeps a single registration.
    @raise Invalid_argument on an empty key list. *)

val base_view : t -> Ekey.t -> Relation.t option
val nodes_with_key : t -> Ekey.t -> node list
(** Every live node carrying the key, in non-decreasing depth order
    (newest first among equal depths) — a fresh list, for cold paths. *)

val iter_matched : t -> Tric_graph.Edge.t -> (node -> unit) -> unit
(** Every node whose key generalises the edge, shallowest first: depth
    by depth, the four keys of {!Ekey.keys_of_edge} in order, each
    key's nodes of that depth newest first — the order a stable sort of
    the keys' concatenated {!nodes_with_key} lists by depth gives, read
    in place with no list built. *)

val fold_edge_index : (Ekey.t -> int -> node list -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the edge index's [(key, depth, nodes)] buckets (audit): the
    nodes a key files under one depth, newest first. *)

val roots : t -> node list

val num_nodes : t -> int
(** Nodes currently in the forest.  Node {e ids} are allocated
    monotonically and never reused, so after pruning the highest id can
    exceed [num_nodes]. *)

val num_tries : t -> int
val num_base_views : t -> int

val prune : t -> node -> Ekey.t list * int
(** [prune t n] detaches [n] if it carries no registration and no
    children, then walks up detaching parents that empty out — the
    reclamation step of query removal.  When a key's last node leaves
    the forest, its entry in the edge index {e and} its base view are
    dropped (a base view no update will ever feed again must not linger:
    it would go stale and fail base-coherence).  Returns the keys whose
    node set shrank — the caller must rebuild their dispatch masks — and
    the summed [Relation.stats_removes] of the detached views, which the
    caller must subtract from its eviction counter to preserve the stats
    audit identity.  A no-op (returning [([], 0)]) when [n] is still
    registered or has children. *)

val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a

val fold_base : (Ekey.t -> Relation.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every base view [matV[e]] with its key (audit/inspection). *)

val pp : Format.formatter -> t -> unit

(** Test-only corruption hooks for the edge index; each breaks one
    property the trie-shape audit checks.  Never call these outside
    tests. *)
module Corrupt : sig
  val disorder_edge_index : t -> bool
  (** Reverse the depth buckets of some key whose nodes span two or more
      depths, so nodes sit under the wrong depth and deeper ones are
      walked first.  [false] if no key's nodes do. *)

  val drop_edge_index_entry : t -> bool
  (** Unlink some node from its key's bucket while it stays in the
      forest.  [false] if the index is empty. *)
end
