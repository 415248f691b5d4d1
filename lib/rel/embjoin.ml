module Int_set = Set.Make (Int)

let bound_set = function
  | [] -> Int_set.empty
  | e :: _ -> Int_set.of_list (Embedding.bound_vids e)

let dedup es =
  let seen = Embedding.Tbl.create ((List.length es * 2) + 1) in
  List.filter
    (fun e ->
      if Embedding.Tbl.mem seen e then false
      else begin
        Embedding.Tbl.add seen e ();
        true
      end)
    es

let join left right =
  match (left, right) with
  | [], _ | _, [] -> []
  | _ ->
    let shared = Int_set.elements (Int_set.inter (bound_set left) (bound_set right)) in
    if shared = [] then
      (* Cartesian product; rare (paths of a connected pattern normally
         intersect) but required for completeness. *)
      dedup
        (List.concat_map
           (fun a -> List.filter_map (fun b -> Embedding.merge a b) right)
           left)
    else begin
      (* Build on the smaller side; key by the typed int-array projection
         onto the shared vids. *)
      let shared = Array.of_list shared in
      let build, probe, flip =
        if List.length left <= List.length right then (left, right, false)
        else (right, left, true)
      in
      let table = Embedding.Key.Tbl.create (List.length build * 2) in
      List.iter
        (fun e ->
          let k = Embedding.Key.of_embedding e shared in
          Embedding.Key.Tbl.replace table k
            (e :: Option.value ~default:[] (Embedding.Key.Tbl.find_opt table k)))
        build;
      let results =
        List.concat_map
          (fun e ->
            let k = Embedding.Key.of_embedding e shared in
            match Embedding.Key.Tbl.find_opt table k with
            | None -> []
            | Some mates ->
              List.filter_map
                (fun m -> if flip then Embedding.merge m e else Embedding.merge e m)
                mates)
          probe
      in
      dedup results
    end

let join_many operands =
  match operands with
  | [] -> []
  | first :: rest ->
    if List.exists (fun l -> l = []) operands then []
    else begin
      let remaining = ref (List.mapi (fun i l -> (i, l, bound_set l)) rest) in
      let acc = ref first in
      let acc_vids = ref (bound_set first) in
      while !remaining <> [] do
        (* Join-order heuristic: maximise shared vids (selective joins
           first), break ties towards the smaller operand (cheaper build
           side) — cardinality-aware ordering in the spirit of the
           paper's workload-statistics outlook. *)
        let score (_, l, vids) =
          (Int_set.cardinal (Int_set.inter vids !acc_vids), -List.length l)
        in
        let better (s1, n1) (s2, n2) = s1 > s2 || (s1 = s2 && n1 > n2) in
        let best =
          List.fold_left
            (fun best cand ->
              match best with
              | None -> Some cand
              | Some b -> if better (score cand) (score b) then Some cand else best)
            None !remaining
        in
        match best with
        | None -> remaining := []
        | Some (i, l, vids) ->
          acc := join !acc l;
          acc_vids := Int_set.union !acc_vids vids;
          remaining := List.filter (fun (j, _, _) -> j <> i) !remaining;
          if !acc = [] then remaining := []
      done;
      !acc
    end

(* -- Packed per-path caches ------------------------------------------------- *)

module Cache = struct
  (* Row [r] of a cache occupies cells [r * stride .. r * stride + stride - 1]
     of [cells]; column [c] binds pattern vid [vids.(c)].  A vid repeated
     along the path (a cycle's closing vertex) occupies several columns:
     [eqs] lists each repeating column with the first column of its vid,
     and a stored row always agrees on both.  Rows keep append order;
     [cells] doubles and never shrinks.  An empty cache holds no row
     storage, and a path without repeated vids shares the atom [[||]] for
     [eqs], so registering a query allocates one small record per path. *)
  type t = {
    vids : int array; (* shared with the query; never mutated *)
    eqs : int array; (* flattened (first column, repeating column) pairs *)
    mutable cells : int array;
    mutable count : int;
  }

  let stride c = Array.length c.vids

  (* The first column before [col] binding the same vid, or -1. *)
  let earlier (vids : int array) col =
    let f = ref (-1) and c = ref 0 in
    while !f < 0 && !c < col do
      if vids.(!c) = vids.(col) then f := !c;
      incr c
    done;
    !f

  let create ~vids =
    let stride = Array.length vids in
    if stride < 1 then invalid_arg "Embjoin.Cache.create: empty vid sequence";
    let pairs = ref 0 in
    for col = 1 to stride - 1 do
      if earlier vids col >= 0 then incr pairs
    done;
    if !pairs = 0 then { vids; eqs = [||]; cells = [||]; count = 0 }
    else begin
      let eqs = Array.make (2 * !pairs) 0 and p = ref 0 in
      for col = 1 to stride - 1 do
        let f = earlier vids col in
        if f >= 0 then begin
          eqs.(!p) <- f;
          eqs.(!p + 1) <- col;
          p := !p + 2
        end
      done;
      { vids; eqs; cells = [||]; count = 0 }
    end

  (* Whether [col] repeats an earlier column's vid. *)
  let repeats c col =
    let r = ref false and p = ref 1 in
    while (not !r) && !p < Array.length c.eqs do
      if c.eqs.(!p) = col then r := true;
      p := !p + 2
    done;
    !r

  let count c = c.count

  (* The repeated-vid equalities of the row at [off] in [data]. *)
  let consistent c (data : int array) off =
    let ok = ref true and p = ref 0 in
    while !ok && !p < Array.length c.eqs do
      if data.(off + c.eqs.(!p)) <> data.(off + c.eqs.(!p + 1)) then ok := false;
      p := !p + 2
    done;
    !ok

  let reserve c n =
    let need = (c.count + n) * stride c in
    if need > Array.length c.cells then begin
      let cap = ref (max (Array.length c.cells) (4 * stride c)) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let cells = Array.make !cap 0 in
      Array.blit c.cells 0 cells 0 (c.count * stride c);
      c.cells <- cells
    end

  let check_width c p fn =
    if Rows.packed_width p <> stride c then
      invalid_arg (Printf.sprintf "Embjoin.Cache.%s: batch width mismatch" fn)

  let append c p =
    check_width c p "append";
    let n = Rows.packed_count p in
    if n > 0 then begin
      reserve c n;
      let data = Rows.packed_data p and w = stride c in
      for i = 0 to n - 1 do
        if consistent c data (i * w) then begin
          Array.blit data (i * w) c.cells (c.count * w) w;
          c.count <- c.count + 1
        end
      done
    end

  let slot_of h mask = (h lxor (h lsr 17)) land mask

  let equal_cells (a : int array) aoff (b : int array) boff len =
    let i = ref 0 in
    while !i < len && a.(aoff + !i) = b.(boff + !i) do
      incr i
    done;
    !i = len

  (* One occurrence per consistent dead row: the dead rows go into an
     open-addressing table of batch indexes (linear probing, load <= 1/2),
     then one order-preserving pass compacts the survivors in place and
     stops probing once every dead row has been matched. *)
  let subtract c p =
    check_width c p "subtract";
    let nd = Rows.packed_count p in
    if nd = 0 || c.count = 0 then 0
    else begin
      let w = stride c and dead = Rows.packed_data p in
      let size = ref 8 in
      while !size < 2 * nd do
        size := 2 * !size
      done;
      let mask = !size - 1 in
      let slots = Array.make !size (-1) in
      let pending = ref 0 in
      for d = 0 to nd - 1 do
        if consistent c dead (d * w) then begin
          let s = ref (slot_of (Rows.hash_ints dead ~off:(d * w) ~len:w) mask) in
          while slots.(!s) >= 0 do
            s := (!s + 1) land mask
          done;
          slots.(!s) <- d;
          incr pending
        end
      done;
      let matched = Bytes.make nd '\000' in
      let cells = c.cells and n = c.count in
      let keep = ref 0 and r = ref 0 in
      while !r < n && !pending > 0 do
        let base = !r * w in
        let s = ref (slot_of (Rows.hash_ints cells ~off:base ~len:w) mask) in
        let hit = ref (-1) in
        while !hit < 0 && slots.(!s) >= 0 do
          let d = slots.(!s) in
          if Bytes.get matched d = '\000' && equal_cells dead (d * w) cells base w then
            hit := d
          else s := (!s + 1) land mask
        done;
        if !hit >= 0 then begin
          Bytes.set matched !hit '\001';
          decr pending
        end
        else begin
          if !keep <> !r then Array.blit cells base cells (!keep * w) w;
          incr keep
        end;
        incr r
      done;
      if !r < n && !keep <> !r then Array.blit cells (!r * w) cells (!keep * w) ((n - !r) * w);
      c.count <- !keep + (n - !r);
      n - c.count
    end

  (* A width-sized embedding cell array binding the row's vids (a
     repeating column rewrites its vid with the same label). *)
  let box ~width c (data : int array) off =
    let e = Array.make width (-1) in
    for col = 0 to stride c - 1 do
      e.(c.vids.(col)) <- data.(off + col)
    done;
    e

  let to_embeddings ~width c =
    List.init c.count (fun r -> Embedding.unsafe_of_cells (box ~width c c.cells (r * stride c)))

  module Corrupt = struct
    let drop_row c =
      c.count > 0
      &&
      (c.count <- c.count - 1;
       true)

    let duplicate_row c =
      c.count > 0
      &&
      (reserve c 1;
       Array.blit c.cells 0 c.cells (c.count * stride c) (stride c);
       c.count <- c.count + 1;
       true)
  end
end

(* -- Join kernel over packed caches ----------------------------------------- *)

(* Growable buffer of embedding cell arrays. *)
type buf = {
  mutable es : int array array;
  mutable n : int;
}

let buf_create cap = { es = Array.make (max 8 cap) [||]; n = 0 }

let push b e =
  if b.n = Array.length b.es then begin
    let es = Array.make (2 * b.n) [||] in
    Array.blit b.es 0 es 0 b.n;
    b.es <- es
  end;
  b.es.(b.n) <- e;
  b.n <- b.n + 1

(* Up to this many accumulated embeddings, a nested loop comparing key
   cells in place beats building a hash table. *)
let nested_max = 8

(* Extend every accumulated embedding (all binding exactly the vids
   flagged in [bound]) by the consistent rows of [c].  The key is the
   cache's columns whose vid is already bound; its other columns bind
   fresh vids, so a key match never conflicts and the merge is a copy
   plus a few writes. *)
let join_step (acc : buf) bound (c : Cache.t) =
  let w = Cache.stride c in
  let cols = List.filter (fun col -> not (Cache.repeats c col)) (List.init w Fun.id) in
  let kcols, ncols = List.partition (fun col -> bound.(c.vids.(col))) cols in
  let kcols = Array.of_list kcols and ncols = Array.of_list ncols in
  let kvids = Array.map (fun col -> c.vids.(col)) kcols in
  let nk = Array.length kcols and cells = c.cells in
  let out = buf_create acc.n in
  let emit e base =
    let e' = Array.copy e in
    for j = 0 to Array.length ncols - 1 do
      e'.(c.vids.(ncols.(j))) <- cells.(base + ncols.(j))
    done;
    push out e'
  in
  if acc.n <= nested_max || nk = 0 then
    for a = 0 to acc.n - 1 do
      let e = acc.es.(a) in
      for r = 0 to c.count - 1 do
        let base = r * w in
        let k = ref 0 in
        while !k < nk && e.(kvids.(!k)) = cells.(base + kcols.(!k)) do
          incr k
        done;
        if !k = nk then emit e base
      done
    done
  else begin
    (* Chained table over the accumulated side: [heads] by key hash,
       [next] threading embeddings of one slot in accumulated order. *)
    let size = ref 16 in
    while !size < 2 * acc.n do
      size := 2 * !size
    done;
    let mask = !size - 1 in
    let heads = Array.make !size (-1) and next = Array.make acc.n (-1) in
    let hash_acc e =
      let h = ref 17 in
      for k = 0 to nk - 1 do
        h := ((!h * 1000003) + e.(kvids.(k))) land max_int
      done;
      Cache.slot_of !h mask
    in
    for a = acc.n - 1 downto 0 do
      let s = hash_acc acc.es.(a) in
      next.(a) <- heads.(s);
      heads.(s) <- a
    done;
    for r = 0 to c.count - 1 do
      let base = r * w in
      let h = ref 17 in
      for k = 0 to nk - 1 do
        h := ((!h * 1000003) + cells.(base + kcols.(k))) land max_int
      done;
      let a = ref heads.(Cache.slot_of !h mask) in
      while !a >= 0 do
        let e = acc.es.(!a) in
        let k = ref 0 in
        while !k < nk && e.(kvids.(!k)) = cells.(base + kcols.(!k)) do
          incr k
        done;
        if !k = nk then emit e base;
        a := next.(!a)
      done
    done
  end;
  Array.iter (fun col -> bound.(c.vids.(col)) <- true) ncols;
  out

(* Join [acc] against every cache of [others], greedily: most shared
   vids first, then the fewest rows, then input order. *)
let extend acc bound (others : Cache.t list) =
  let shared (c : Cache.t) =
    let n = ref 0 in
    for col = 0 to Cache.stride c - 1 do
      if bound.(c.vids.(col)) && not (Cache.repeats c col) then incr n
    done;
    !n
  in
  let rec go acc = function
    | [] -> acc
    | _ when acc.n = 0 -> acc
    | first :: rest as remaining ->
      let best =
        List.fold_left
          (fun (b : Cache.t) (c : Cache.t) ->
            let sb = shared b and sc = shared c in
            if sc > sb || (sc = sb && c.count < b.count) then c else b)
          first rest
      in
      go (join_step acc bound best) (List.filter (fun c -> c != best) remaining)
  in
  go acc others

let totals (b : buf) results =
  let out = ref results in
  for i = b.n - 1 downto 0 do
    let e = Embedding.unsafe_of_cells b.es.(i) in
    if Embedding.is_total e then out := e :: !out
  done;
  !out

let bound_of ~width (c : Cache.t) =
  let bound = Array.make width false in
  Array.iter (fun vid -> bound.(vid) <- true) c.vids;
  bound

(* The caches other than [i], when all are non-empty. *)
let others_nonempty (caches : Cache.t array) i =
  let rec go j acc =
    if j < 0 then Some acc
    else if j = i then go (j - 1) acc
    else if caches.(j).count = 0 then None
    else go (j - 1) (caches.(j) :: acc)
  in
  go (Array.length caches - 1) []

(* Rows [lo ..] of [c], boxed. *)
let box_rows ~width (c : Cache.t) lo =
  let acc = buf_create (c.count - lo) in
  for r = lo to c.count - 1 do
    push acc (Cache.box ~width c c.cells (r * Cache.stride c))
  done;
  acc

let join_caches ~width (caches : Cache.t array) =
  if Array.length caches = 0 then []
  else begin
    (* Seed with the smallest cache: the fewest rows to box. *)
    let seed = ref 0 in
    Array.iteri (fun i (c : Cache.t) -> if c.count < caches.(!seed).count then seed := i) caches;
    let c = caches.(!seed) in
    match others_nonempty caches !seed with
    | None -> []
    | Some others -> totals (extend (box_rows ~width c 0) (bound_of ~width c) others) []
  end

let add_deltas ~width (caches : Cache.t array) deltas =
  let results = ref [] in
  Array.iteri
    (fun i packs ->
      let c = caches.(i) in
      let before = c.count in
      List.iter (Cache.append c) packs;
      if c.count > before then
        match others_nonempty caches i with
        | None -> ()
        | Some others ->
          results := totals (extend (box_rows ~width c before) (bound_of ~width c) others) !results)
    deltas;
  !results

let remove_deltas ~width (caches : Cache.t array) deltas =
  let results = ref [] and removed = ref 0 in
  Array.iteri
    (fun i packs ->
      match packs with
      | [] -> ()
      | first :: rest ->
        let c = caches.(i) in
        let dead =
          match rest with [] -> first | _ -> Rows.packed_concat ~width:(Cache.stride c) packs
        in
        (match others_nonempty caches i with
        | None -> ()
        | Some others ->
          let data = Rows.packed_data dead in
          let acc = buf_create (Rows.packed_count dead) in
          for d = 0 to Rows.packed_count dead - 1 do
            let off = d * Cache.stride c in
            if Cache.consistent c data off then push acc (Cache.box ~width c data off)
          done;
          results := totals (extend acc (bound_of ~width c) others) !results);
        removed := !removed + Cache.subtract c dead)
    deltas;
  (!results, !removed)
