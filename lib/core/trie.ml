open Tric_graph
open Tric_query
open Tric_rel

type node = {
  nid : int;
  key : Ekey.t;
  depth : int;
  parent : node option;
  children_tbl : node Ekey.Tbl.t;
  (* Contiguous child slice in insertion order (deterministic walks):
     a growable array, not a linked list — child sets are iterated on
     every descent of the propagation hot path. *)
  mutable children : node array;
  mutable nchildren : int;
  view : Relation.t;
  mutable regs : (int * int) list;
}

let node_id n = n.nid
let deregister n ~qid = n.regs <- List.filter (fun (q, _) -> q <> qid) n.regs
let node_key n = n.key
let node_depth n = n.depth
let node_view n = n.view
let node_parent n = n.parent
let node_children n = Array.to_list (Array.sub n.children 0 n.nchildren)

let iter_children f n =
  for i = 0 to n.nchildren - 1 do
    f n.children.(i)
  done

let push_child p c =
  if p.nchildren = Array.length p.children then begin
    let grown = Array.make (max 4 (2 * Array.length p.children)) c in
    Array.blit p.children 0 grown 0 p.nchildren;
    p.children <- grown
  end;
  p.children.(p.nchildren) <- c;
  p.nchildren <- p.nchildren + 1

(* Order-preserving removal (shift left): pruning is cold, walks are hot. *)
let remove_child p nid =
  let i = ref 0 in
  while !i < p.nchildren && p.children.(!i).nid <> nid do
    incr i
  done;
  if !i < p.nchildren then begin
    for j = !i to p.nchildren - 2 do
      p.children.(j) <- p.children.(j + 1)
    done;
    p.nchildren <- p.nchildren - 1
  end

let registrations n = List.rev n.regs
let is_registered n = n.regs <> []

type t = {
  cache : bool;
  id_base : int;
  id_stride : int;
  root_ind : node Ekey.Tbl.t;
  edge_ind : node list array ref Ekey.Tbl.t;
  base : Relation.t Ekey.Tbl.t;
  mutable node_count : int; (* monotone id allocator — never decremented *)
  mutable live_count : int; (* nodes currently in the forest *)
  view_obs : Relation.obs option; (* node views: stable across shard counts *)
  base_obs : Relation.obs option; (* base views: duplicated per shard, unstable *)
}

let create ?(id_base = 0) ?(id_stride = 1) ?obs ~cache () =
  if id_stride < 1 then invalid_arg "Trie.create: id_stride must be >= 1";
  if id_base < 0 || id_base >= id_stride then
    invalid_arg "Trie.create: id_base must lie in [0, id_stride)";
  (* Node views are partitioned across shards (each node lives on exactly
     one shard), so their activity counters sum to the same totals at any
     shard count.  Base views are NOT partitioned — a key's base view is
     duplicated on every shard whose forest mentions the key — so their
     counters are placement-dependent and flagged unstable. *)
  let view_obs, base_obs =
    match obs with
    | None -> (None, None)
    | Some reg ->
      ( Some (Relation.make_obs reg ~prefix:"tric_view" ~stable:true),
        Some (Relation.make_obs reg ~prefix:"tric_base" ~stable:false) )
  in
  {
    cache;
    id_base;
    id_stride;
    root_ind = Ekey.Tbl.create 256;
    edge_ind = Ekey.Tbl.create 256;
    base = Ekey.Tbl.create 256;
    node_count = 0;
    live_count = 0;
    view_obs;
    base_obs;
  }

let ensure_base t key =
  match Ekey.Tbl.find_opt t.base key with
  | Some r -> r
  | None ->
    let r = Relation.create ~cache:t.cache ?obs:t.base_obs ~width:2 () in
    Ekey.Tbl.add t.base key r;
    r

(* The edge index buckets each key's nodes by depth: [!cell.(d)] holds
   the depth-[d] nodes, newest first (the order plain prepending gave).
   Walking the buckets in depth order is the depth-ordered list the
   answering walk needs, and a new node still costs one prepend. *)
let register_in_edge_ind t key node =
  let cell =
    match Ekey.Tbl.find_opt t.edge_ind key with
    | Some cell -> cell
    | None ->
      let cell = ref [||] in
      Ekey.Tbl.add t.edge_ind key cell;
      cell
  in
  let b = !cell in
  if node.depth >= Array.length b then
    cell := Array.init (node.depth + 1) (fun d -> if d < Array.length b then b.(d) else []);
  !cell.(node.depth) <- node :: !cell.(node.depth)

(* Seed a fresh node's view from its parent's view joined with the key's
   base view, so late-added queries see retained state.  Both sides are
   packed stores at rest, so this is a sorted-run merge join — parent's
   last column against the base view's source column — with no hash table
   on either side. *)
let seed t node =
  let base = ensure_base t node.key in
  if not (Relation.is_empty base) then begin
    match node.parent with
    | None ->
      Relation.iter_rows
        (fun row ->
          ignore
            (Relation.insert_edge_row node.view
               ~src:(Relation.row_col base row 0)
               ~dst:(Relation.row_col base row 1)))
        base
    | Some p ->
      if not (Relation.is_empty p.view) then
        Relation.merge_join ~left:p.view
          ~lcol:(Relation.width p.view - 1)
          ~right:base ~rcol:0
          (fun prow brow ->
            ignore
              (Relation.insert_extend node.view ~src:p.view ~row:prow
                 ~ext:(Relation.row_col base brow 1)))
  end

let new_node t ~key ~parent =
  let depth = match parent with None -> 0 | Some p -> p.depth + 1 in
  (* Pre-size the view's arena from what seeding can at most produce:
     the parent view's cardinality (each parent row extends to at least
     zero, typically few, children), or the base view at the root. *)
  let expect =
    match parent with
    | Some p -> Relation.cardinality p.view
    | None -> (
      match Ekey.Tbl.find_opt t.base key with
      | Some b -> Relation.cardinality b
      | None -> 0)
  in
  let n =
    {
      nid = t.id_base + (t.node_count * t.id_stride);
      key;
      depth;
      parent;
      children_tbl = Ekey.Tbl.create 4;
      children = [||];
      nchildren = 0;
      view = Relation.create ~cache:t.cache ?obs:t.view_obs ~expect ~width:(depth + 2) ();
      regs = [];
    }
  in
  t.node_count <- t.node_count + 1;
  t.live_count <- t.live_count + 1;
  ignore (ensure_base t key);
  register_in_edge_ind t key n;
  seed t n;
  (match parent with
  | None -> Ekey.Tbl.add t.root_ind key n
  | Some p ->
    Ekey.Tbl.add p.children_tbl key n;
    push_child p n);
  n

let insert_path t keys ~qid ~path_index =
  match keys with
  | [] -> invalid_arg "Trie.insert_path: empty path"
  | first :: rest ->
    let root =
      match Ekey.Tbl.find_opt t.root_ind first with
      | Some n -> n
      | None -> new_node t ~key:first ~parent:None
    in
    let rec descend node = function
      | [] -> node
      | key :: tl ->
        let child =
          match Ekey.Tbl.find_opt node.children_tbl key with
          | Some c -> c
          | None -> new_node t ~key ~parent:(Some node)
        in
        descend child tl
    in
    let terminal = descend root rest in
    (* Idempotent: re-indexing a path (e.g. a query re-added after removal,
       or two covering paths collapsing to the same key word) must not
       duplicate the registration — a duplicate would double-count every
       delta reported from this terminal. *)
    if not (List.exists (fun (q, p) -> q = qid && p = path_index) terminal.regs) then
      terminal.regs <- (qid, path_index) :: terminal.regs;
    terminal

let base_view t key = Ekey.Tbl.find_opt t.base key

let buckets t key = match Ekey.Tbl.find_opt t.edge_ind key with Some cell -> !cell | None -> [||]
let nodes_with_key t key = List.concat (Array.to_list (buckets t key))

(* Depth by depth, the edge's four keys in [Ekey.keys_of_edge] order,
   each bucket in list order — exactly a stable sort of the keys'
   concatenated node lists by depth, without building it. *)
let iter_matched t (e : Edge.t) f =
  let keys = Array.of_list (List.map (buckets t) (Ekey.keys_of_edge e)) in
  let depths = Array.fold_left (fun m b -> max m (Array.length b)) 0 keys in
  for d = 0 to depths - 1 do
    for k = 0 to Array.length keys - 1 do
      let b = keys.(k) in
      if d < Array.length b then List.iter f b.(d)
    done
  done

let roots t = Ekey.Tbl.fold (fun _ n acc -> n :: acc) t.root_ind []
let num_tries t = Ekey.Tbl.length t.root_ind
let num_nodes t = t.live_count
let num_base_views t = Ekey.Tbl.length t.base

(* Bottom-up pruning: starting from a just-deregistered terminal, detach
   every node that carries no registration and no children — walking up
   to the root as parents empty out.  A detached node leaves the edge
   index too; when a key's last node goes, the key's base view goes with
   it (the routing layer will stop dispatching the key here, so a
   retained base view would silently go stale).  Returns the keys whose
   node set shrank (so the caller can rebuild dispatch masks) and the
   total [Relation.stats_removes] of the detached views (so the caller
   can keep its eviction-accounting identity: detached views no longer
   contribute to the live-view eviction sum). *)
let prune t node =
  let keys = ref [] in
  let removes = ref 0 in
  let note_key k =
    if not (List.exists (fun k' -> Ekey.equal k k') !keys) then keys := k :: !keys
  in
  let rec go n =
    if n.regs = [] && n.nchildren = 0 then begin
      (match Ekey.Tbl.find_opt t.edge_ind n.key with
      | Some cell ->
        let b = !cell in
        b.(n.depth) <- List.filter (fun m -> m.nid <> n.nid) b.(n.depth);
        if Array.for_all (fun l -> l = []) b then begin
          Ekey.Tbl.remove t.edge_ind n.key;
          Ekey.Tbl.remove t.base n.key
        end
      | None -> ());
      note_key n.key;
      removes := !removes + Relation.stats_removes n.view;
      t.live_count <- t.live_count - 1;
      match n.parent with
      | None -> Ekey.Tbl.remove t.root_ind n.key
      | Some p ->
        Ekey.Tbl.remove p.children_tbl n.key;
        remove_child p n.nid;
        go p
    end
  in
  go node;
  (!keys, !removes)

let fold_nodes f t init =
  let rec go n acc =
    let acc = ref (f n acc) in
    iter_children (fun c -> acc := go c !acc) n;
    !acc
  in
  List.fold_left (fun acc r -> go r acc) init (roots t)

let fold_base f t init = Ekey.Tbl.fold f t.base init
let fold_edge_index f t init =
  Ekey.Tbl.fold
    (fun k cell acc ->
      let acc = ref acc in
      Array.iteri (fun d nodes -> acc := f k d nodes !acc) !cell;
      !acc)
    t.edge_ind init

let pp fmt t =
  let rec pp_node fmt n =
    Format.fprintf fmt "@[<v 2>%a |view|=%d regs=%a" Ekey.pp n.key
      (Relation.cardinality n.view)
      (Format.pp_print_list (fun f (q, p) -> Format.fprintf f "(Q%d,P%d)" q p))
      (registrations n);
    List.iter (fun c -> Format.fprintf fmt "@,%a" pp_node c) (node_children n);
    Format.fprintf fmt "@]"
  in
  Format.fprintf fmt "@[<v>forest: %d tries, %d nodes" (num_tries t) (num_nodes t);
  List.iter (fun r -> Format.fprintf fmt "@,%a" pp_node r) (roots t);
  Format.fprintf fmt "@]"

module Corrupt = struct
  let pick_key t p =
    Ekey.Tbl.fold (fun _ cell acc -> match acc with None when p !cell -> Some cell | _ -> acc)
      t.edge_ind None

  let occupied b = Array.fold_left (fun n l -> if l = [] then n else n + 1) 0 b

  let disorder_edge_index t =
    match pick_key t (fun b -> occupied b >= 2) with
    | Some cell ->
      cell := Array.of_list (List.rev (Array.to_list !cell));
      true
    | None -> false

  let drop_edge_index_entry t =
    match pick_key t (fun b -> occupied b >= 1) with
    | Some cell ->
      let b = !cell in
      let d = ref 0 in
      while b.(!d) = [] do
        incr d
      done;
      b.(!d) <- List.tl b.(!d);
      true
    | None -> false
end
