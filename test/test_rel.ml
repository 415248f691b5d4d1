(* Relational substrate tests: tuples, relations (with/without cached
   indexes), embeddings, embedding joins. *)

open Tric_graph
open Tric_rel

let l s = Label.intern s
let tup ss = Array.map l (Array.of_list ss) |> Tuple.make

let test_tuple_basics () =
  let t = tup [ "a"; "b"; "c" ] in
  Alcotest.(check int) "width" 3 (Tuple.width t);
  Alcotest.(check string) "first" "a" (Label.to_string (Tuple.first t));
  Alcotest.(check string) "last" "c" (Label.to_string (Tuple.last t));
  let t' = Tuple.extend t (l "d") in
  Alcotest.(check int) "extended width" 4 (Tuple.width t');
  Alcotest.(check int) "original untouched" 3 (Tuple.width t);
  Alcotest.(check bool) "equal" true (Tuple.equal t (tup [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "unequal" false (Tuple.equal t t')

let test_relation_dedup_and_remove () =
  let r = Relation.create ~width:2 () in
  Alcotest.(check bool) "insert new" true (Relation.insert r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "insert dup" false (Relation.insert r (tup [ "a"; "b" ]));
  Alcotest.(check int) "cardinality" 1 (Relation.cardinality r);
  let fresh = Relation.insert_all r [ tup [ "a"; "b" ]; tup [ "c"; "d" ]; tup [ "c"; "d" ] ] in
  Alcotest.(check int) "insert_all reports new only" 1 (List.length fresh);
  Alcotest.(check bool) "remove" true (Relation.remove r (tup [ "a"; "b" ]));
  Alcotest.(check bool) "remove absent" false (Relation.remove r (tup [ "a"; "b" ]));
  let gone = Relation.remove_all r [ tup [ "a"; "b" ]; tup [ "c"; "d" ]; tup [ "c"; "d" ] ] in
  Alcotest.(check int) "remove_all reports present only" 1 (List.length gone);
  Alcotest.(check bool) "empty" true (Relation.is_empty r);
  Alcotest.check_raises "width check" (Invalid_argument "Relation.insert: width mismatch")
    (fun () -> ignore (Relation.insert r (tup [ "a" ])))

let test_relation_index_modes () =
  let check_probe cache =
    let r = Relation.create ~cache ~width:2 () in
    ignore (Relation.insert_all r [ tup [ "a"; "b" ]; tup [ "a"; "c" ]; tup [ "x"; "y" ] ]);
    let probe = Relation.index_on r ~col:0 in
    Alcotest.(check int) "probe hits" 2 (List.length (probe (l "a")));
    Alcotest.(check int) "probe miss" 0 (List.length (probe (l "zz")));
    (* In caching mode the index must track later mutations. *)
    if cache then begin
      ignore (Relation.insert r (tup [ "a"; "d" ]));
      Alcotest.(check int) "cached index sees insert" 3 (List.length (probe (l "a")));
      ignore (Relation.remove r (tup [ "a"; "b" ]));
      Alcotest.(check int) "cached index sees remove" 2 (List.length (probe (l "a")))
    end
  in
  check_probe false;
  check_probe true;
  (* Rebuild accounting: non-cached rebuilds per call, cached builds once. *)
  let r = Relation.create ~cache:false ~width:2 () in
  ignore (Relation.insert r (tup [ "a"; "b" ]));
  ignore (Relation.index_on r ~col:0 : Relation.probe);
  ignore (Relation.index_on r ~col:0 : Relation.probe);
  Alcotest.(check int) "uncached rebuilds" 2 (Relation.stats_rebuilds r);
  let rc = Relation.create ~cache:true ~width:2 () in
  ignore (Relation.insert rc (tup [ "a"; "b" ]));
  ignore (Relation.index_on rc ~col:0 : Relation.probe);
  ignore (Relation.index_on rc ~col:0 : Relation.probe);
  Alcotest.(check int) "cached builds once" 1 (Relation.stats_rebuilds rc)

let test_probe_scan () =
  let r = Relation.create ~width:2 () in
  ignore (Relation.insert_all r [ tup [ "a"; "b" ]; tup [ "a"; "c" ]; tup [ "z"; "b" ] ]);
  Alcotest.(check int) "probe_scan col0" 2 (List.length (Relation.probe_scan r ~col:0 (l "a")));
  Alcotest.(check int) "probe_scan col1" 2 (List.length (Relation.probe_scan r ~col:1 (l "b")));
  let hits = ref 0 in
  Relation.scan_probing r ~col:0
    (fun hinge -> if Label.equal hinge (l "a") then [ 1; 2 ] else [])
    (fun _t _hit -> incr hits);
  Alcotest.(check int) "scan_probing fan-out" 4 !hits

let test_deletion_indexes () =
  (* probe_prefix / probe_hinge must work and stay maintained in BOTH cache
     modes (deletions never fall back to view scans). *)
  List.iter
    (fun cache ->
      let r = Relation.create ~cache ~width:3 () in
      ignore
        (Relation.insert_all r
           [ tup [ "a"; "b"; "c" ]; tup [ "a"; "b"; "d" ]; tup [ "x"; "b"; "c" ] ]);
      Alcotest.(check int)
        "prefix hits" 2
        (List.length (Relation.probe_prefix r (tup [ "a"; "b" ])));
      Alcotest.(check int)
        "prefix miss" 0
        (List.length (Relation.probe_prefix r (tup [ "a"; "zz" ])));
      Alcotest.(check int)
        "hinge hits" 2
        (List.length (Relation.probe_hinge r ~src:(l "b") ~dst:(l "c")));
      (* Maintained across later mutations, in both modes. *)
      ignore (Relation.insert r (tup [ "a"; "b"; "e" ]));
      Alcotest.(check int)
        "prefix sees insert" 3
        (List.length (Relation.probe_prefix r (tup [ "a"; "b" ])));
      ignore (Relation.remove r (tup [ "a"; "b"; "c" ]));
      Alcotest.(check int)
        "prefix sees remove" 2
        (List.length (Relation.probe_prefix r (tup [ "a"; "b" ])));
      Alcotest.(check int)
        "hinge sees remove" 1
        (List.length (Relation.probe_hinge r ~src:(l "b") ~dst:(l "c")));
      Alcotest.(check bool) "probes counted" true (Relation.stats_delta_probes r >= 6);
      Alcotest.check_raises "prefix width check"
        (Invalid_argument "Relation.probe_prefix: bad prefix width") (fun () ->
          ignore (Relation.probe_prefix r (tup [ "a" ]))))
    [ false; true ]

let test_index_bucket_hygiene () =
  (* Removals must drop emptied buckets instead of leaving ref [] cells
     behind forever. *)
  let r = Relation.create ~cache:true ~width:2 () in
  let probe = Relation.index_on r ~col:0 in
  for i = 0 to 99 do
    ignore (Relation.insert r (tup [ Printf.sprintf "k%d" i; "v" ]))
  done;
  Alcotest.(check int) "one bucket per key" 100 (Relation.stats_index_buckets r);
  for i = 0 to 99 do
    ignore (Relation.remove r (tup [ Printf.sprintf "k%d" i; "v" ]))
  done;
  Alcotest.(check int) "all buckets dropped" 0 (Relation.stats_index_buckets r);
  Alcotest.(check int) "probe after drop" 0 (List.length (probe (l "k0")));
  (* Re-inserting after a drop recreates the bucket. *)
  ignore (Relation.insert r (tup [ "k0"; "v" ]));
  Alcotest.(check int) "bucket recreated" 1 (List.length (probe (l "k0")))

(* -- Chained column index ------------------------------------------------------ *)

(* The tuples [iter_col_rows] yields for [key], in call order. *)
let chain r ~col key =
  let out = ref [] in
  Relation.iter_col_rows r ~col (l key) (fun row -> out := Relation.row_tuple r row :: !out);
  List.rev_map
    (fun t -> List.init (Tuple.width t) (fun i -> Label.to_string (Tuple.get t i)))
    !out

let check_chain msg r ~col key expected =
  Alcotest.(check (list (list string))) msg expected (chain r ~col key)

let check_clean msg r =
  Alcotest.(check (list (pair string string))) msg [] (Relation.audit r)

let test_chain_order () =
  let r = Relation.create ~cache:true ~width:2 () in
  List.iter (fun v -> ignore (Relation.insert r (tup [ "a"; v ]))) [ "1"; "2"; "3"; "4"; "5" ];
  ignore (Relation.insert r (tup [ "b"; "x" ]));
  let a vs = List.map (fun v -> [ "a"; v ]) vs in
  check_chain "insertion order" r ~col:0 "a" (a [ "1"; "2"; "3"; "4"; "5" ]);
  ignore (Relation.remove r (tup [ "a"; "1" ]));
  check_chain "head removed" r ~col:0 "a" (a [ "2"; "3"; "4"; "5" ]);
  ignore (Relation.remove r (tup [ "a"; "3" ]));
  check_chain "middle removed" r ~col:0 "a" (a [ "2"; "4"; "5" ]);
  ignore (Relation.remove r (tup [ "a"; "5" ]));
  check_chain "tail removed" r ~col:0 "a" (a [ "2"; "4" ]);
  ignore (Relation.insert r (tup [ "a"; "6" ]));
  check_chain "append after tail removal" r ~col:0 "a" (a [ "2"; "4"; "6" ]);
  check_chain "other key untouched" r ~col:0 "b" [ [ "b"; "x" ] ];
  check_clean "audit clean" r

let test_chain_tombstones_and_growth () =
  (* Built on the empty relation, so every key below is filed through
     growth rehashes; then half the keys are emptied (tombstoned) and new
     keys refill the table. *)
  let r = Relation.create ~cache:true ~width:2 () in
  check_chain "empty relation" r ~col:0 "k0" [];
  let key p i = Printf.sprintf "%s%d" p i in
  for i = 0 to 999 do
    ignore (Relation.insert r (tup [ key "k" i; "v" ]))
  done;
  Alcotest.(check int) "1000 keys" 1000 (Relation.stats_index_buckets r);
  check_clean "audit clean after growth" r;
  for i = 0 to 499 do
    ignore (Relation.remove r (tup [ key "k" (2 * i); "v" ]))
  done;
  Alcotest.(check int) "500 keys left" 500 (Relation.stats_index_buckets r);
  check_clean "audit clean with tombstones" r;
  for i = 0 to 1499 do
    ignore (Relation.insert r (tup [ key "n" i; "w" ]))
  done;
  Alcotest.(check int) "2000 keys" 2000 (Relation.stats_index_buckets r);
  for i = 0 to 999 do
    let k = key "k" i in
    check_chain k r ~col:0 k (if i mod 2 = 0 then [] else [ [ k; "v" ] ])
  done;
  for i = 0 to 1499 do
    let k = key "n" i in
    check_chain k r ~col:0 k [ [ k; "w" ] ]
  done;
  check_clean "audit clean after refill" r

let test_chain_row_reuse () =
  (* Removing (a,1) frees its row id with a stale [next] pointing at
     (a,2); the freelist hands that id to (b,2), which must end b's chain
     rather than run on into a's. *)
  let r = Relation.create ~cache:true ~width:2 () in
  List.iter
    (fun t -> ignore (Relation.insert r (tup t)))
    [ [ "a"; "1" ]; [ "a"; "2" ]; [ "b"; "1" ] ];
  check_chain "a before" r ~col:0 "a" [ [ "a"; "1" ]; [ "a"; "2" ] ];
  ignore (Relation.remove r (tup [ "a"; "1" ]));
  ignore (Relation.insert r (tup [ "b"; "2" ]));
  check_chain "b re-threaded" r ~col:0 "b" [ [ "b"; "1" ]; [ "b"; "2" ] ];
  check_chain "a intact" r ~col:0 "a" [ [ "a"; "2" ] ];
  ignore (Relation.remove r (tup [ "a"; "2" ]));
  ignore (Relation.insert r (tup [ "a"; "3" ]));
  check_chain "a refiled on a reused row" r ~col:0 "a" [ [ "a"; "3" ] ];
  check_clean "audit clean" r

let test_chain_miss () =
  let r = Relation.create ~cache:true ~width:2 () in
  let never row = Alcotest.failf "unexpected row %d" row in
  Relation.iter_col_rows r ~col:0 (l "a") never;
  ignore (Relation.insert r (tup [ "a"; "b" ]));
  Relation.iter_col_rows r ~col:0 (l "unseen") never;
  Relation.iter_col_rows r ~col:1 (l "a") never;
  ignore (Relation.remove r (tup [ "a"; "b" ]));
  Relation.iter_col_rows r ~col:0 (l "a") never;
  Alcotest.(check int) "one build per column" 2 (Relation.stats_rebuilds r);
  Alcotest.check_raises "needs caching"
    (Invalid_argument "Relation.iter_col_rows: relation is not caching") (fun () ->
      Relation.iter_col_rows (Relation.create ~width:2 ()) ~col:0 (l "a") never)

let test_chain_buckets_after_churn () =
  (* Two indexed columns under a deterministic add/remove churn over a
     small key space: the filed keys must always be the distinct live
     labels of each column. *)
  let r = Relation.create ~cache:true ~width:2 () in
  ignore (Relation.index_on r ~col:0 : Relation.probe);
  ignore (Relation.index_on r ~col:1 : Relation.probe);
  let distinct col =
    Relation.fold (fun t acc -> Label.Set.add (Tuple.get t col) acc) r Label.Set.empty
    |> Label.Set.cardinal
  in
  let x = ref 7 in
  for step = 1 to 3000 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let t = tup [ Printf.sprintf "s%d" (!x mod 37); Printf.sprintf "d%d" (!x / 37 mod 23) ] in
    if !x / 851 mod 3 = 0 then ignore (Relation.remove r t) else ignore (Relation.insert r t);
    if step mod 500 = 0 then begin
      Alcotest.(check int)
        (Printf.sprintf "step %d" step)
        (distinct 0 + distinct 1) (Relation.stats_index_buckets r);
      check_clean (Printf.sprintf "audit clean at step %d" step) r
    end
  done

let test_embedding () =
  let e = Embedding.empty 3 in
  Alcotest.(check bool) "not total" false (Embedding.is_total e);
  let e1 = Option.get (Embedding.bind e 0 (l "a")) in
  Alcotest.(check bool) "rebind same ok" true (Embedding.bind e1 0 (l "a") <> None);
  Alcotest.(check bool) "conflict" true (Embedding.bind e1 0 (l "b") = None);
  Alcotest.(check bool) "original immutable" false (Embedding.is_bound e 0);
  let e2 = Option.get (Embedding.bind_tuple e1 ~vids:[| 1; 2 |] (tup [ "x"; "y" ])) in
  Alcotest.(check bool) "total now" true (Embedding.is_total e2);
  (* Repeated vid in the tuple enforces equality. *)
  Alcotest.(check bool) "repeated vid conflict" true
    (Embedding.of_tuple ~width:3 ~vids:[| 0; 0 |] (tup [ "x"; "y" ]) = None);
  Alcotest.(check bool) "repeated vid ok" true
    (Embedding.of_tuple ~width:3 ~vids:[| 0; 0 |] (tup [ "x"; "x" ]) <> None);
  (* Merge. *)
  let a = Option.get (Embedding.of_tuple ~width:3 ~vids:[| 0; 1 |] (tup [ "p"; "q" ])) in
  let b = Option.get (Embedding.of_tuple ~width:3 ~vids:[| 1; 2 |] (tup [ "q"; "r" ])) in
  let m = Option.get (Embedding.merge a b) in
  Alcotest.(check bool) "merge total" true (Embedding.is_total m);
  let b' = Option.get (Embedding.of_tuple ~width:3 ~vids:[| 1; 2 |] (tup [ "zz"; "r" ])) in
  Alcotest.(check bool) "merge conflict" true (Embedding.merge a b' = None)

let embs_of width specs =
  List.map
    (fun pairs ->
      List.fold_left
        (fun e (vid, v) -> Option.get (Embedding.bind e vid (l v)))
        (Embedding.empty width) pairs)
    specs

let test_embjoin () =
  (* Join on shared vid 1. *)
  let left = embs_of 3 [ [ (0, "a"); (1, "h1") ]; [ (0, "b"); (1, "h2") ] ] in
  let right = embs_of 3 [ [ (1, "h1"); (2, "x") ]; [ (1, "h1"); (2, "y") ]; [ (1, "h3"); (2, "z") ] ] in
  let joined = Embjoin.join left right in
  Alcotest.(check int) "two results" 2 (List.length joined);
  List.iter (fun e -> Alcotest.(check bool) "total" true (Embedding.is_total e)) joined;
  (* Empty side annihilates. *)
  Alcotest.(check int) "empty left" 0 (List.length (Embjoin.join [] right));
  (* No shared vids = cartesian product. *)
  let a = embs_of 2 [ [ (0, "a") ]; [ (0, "b") ] ] in
  let b = embs_of 2 [ [ (1, "x") ]; [ (1, "y") ] ] in
  Alcotest.(check int) "cartesian" 4 (List.length (Embjoin.join a b));
  (* join_many over three operands chained by shared vids. *)
  let o1 = embs_of 4 [ [ (0, "a"); (1, "b") ] ] in
  let o2 = embs_of 4 [ [ (1, "b"); (2, "c") ]; [ (1, "zz"); (2, "c") ] ] in
  let o3 = embs_of 4 [ [ (2, "c"); (3, "d") ] ] in
  let all = Embjoin.join_many [ o1; o2; o3 ] in
  Alcotest.(check int) "three-way join" 1 (List.length all);
  Alcotest.(check int) "join_many with empty operand" 0
    (List.length (Embjoin.join_many [ o1; []; o3 ]));
  Alcotest.(check int) "dedup" 1 (List.length (Embjoin.dedup (o1 @ o1)))

(* -- Packed per-path caches -------------------------------------------------- *)

let li s = Label.to_int (l s)

let cells_of e =
  List.init (Embedding.width e) (fun vid ->
      match Embedding.get e vid with Some x -> Label.to_int x | None -> -1)

let cache_rows ~width c = List.map cells_of (Embjoin.Cache.to_embeddings ~width c)
let sorted_embs es = List.sort Embedding.compare es

let check_same_embs msg a b =
  let a = sorted_embs a and b = sorted_embs b in
  Alcotest.(check int) (msg ^ ": count") (List.length b) (List.length a);
  Alcotest.(check bool) (msg ^ ": same embeddings") true (List.for_all2 Embedding.equal a b)

let test_cache_append_equalities () =
  (* Path ?0 -> ?1 -> ?0 (a 2-cycle): columns 0 and 2 must agree. *)
  let c = Embjoin.Cache.create ~vids:[| 0; 1; 0 |] in
  Alcotest.(check int) "starts empty" 0 (Embjoin.Cache.count c);
  Embjoin.Cache.append c
    (Helpers.packed_of ~width:3
       [
         [ li "a"; li "b"; li "a" ];
         [ li "a"; li "b"; li "c" ];
         [ li "c"; li "c"; li "c" ];
         [ li "b"; li "a"; li "a" ];
       ]);
  Alcotest.(check int) "inconsistent rows skipped" 2 (Embjoin.Cache.count c);
  Alcotest.(check (list (list int)))
    "consistent rows kept, in order, one cell per vid"
    [ [ li "a"; li "b" ]; [ li "c"; li "c" ] ]
    (cache_rows ~width:2 c);
  (* Subtracting an inconsistent row is a no-op: it was never stored. *)
  Alcotest.(check int) "inconsistent dead row ignored" 0
    (Embjoin.Cache.subtract c (Helpers.packed_of ~width:3 [ [ li "a"; li "b"; li "c" ] ]));
  Alcotest.(check int) "width checked" 1
    (match Embjoin.Cache.append c (Helpers.packed_of ~width:2 [ [ li "a"; li "b" ] ]) with
    | () -> 0
    | exception Invalid_argument _ -> 1)

let test_cache_subtract () =
  let c = Embjoin.Cache.create ~vids:[| 0; 1 |] in
  let row x y = [ li x; li y ] in
  Embjoin.Cache.append c
    (Helpers.packed_of ~width:2
       [ row "a" "b"; row "c" "d"; row "a" "b"; row "e" "f"; row "g" "h"; row "c" "d" ]);
  Alcotest.(check int) "removed count" 2
    (Embjoin.Cache.subtract c (Helpers.packed_of ~width:2 [ row "a" "b"; row "c" "d"; row "x" "y" ]));
  Alcotest.(check (list (list int)))
    "one occurrence each, survivors in order"
    [ row "a" "b"; row "e" "f"; row "g" "h"; row "c" "d" ]
    (cache_rows ~width:2 c);
  Alcotest.(check int) "absent rows remove nothing" 0
    (Embjoin.Cache.subtract c (Helpers.packed_of ~width:2 [ row "x" "y" ]));
  Alcotest.(check int) "removing every row" 4
    (Embjoin.Cache.subtract c
       (Helpers.packed_of ~width:2 [ row "g" "h"; row "c" "d"; row "a" "b"; row "e" "f" ]));
  Alcotest.(check int) "cache emptied" 0 (Embjoin.Cache.count c);
  Alcotest.(check int) "subtract from empty" 0
    (Embjoin.Cache.subtract c (Helpers.packed_of ~width:2 [ row "a" "b" ]));
  Embjoin.Cache.append c (Helpers.packed_of ~width:2 [ row "e" "f" ]);
  Alcotest.(check (list (list int))) "reusable after emptying" [ row "e" "f" ]
    (cache_rows ~width:2 c)

let test_cache_growth () =
  let c = Embjoin.Cache.create ~vids:[| 0; 1; 2 |] in
  let n = 1000 in
  let labels = Array.init n (fun i -> li (Printf.sprintf "g%d" i)) in
  let row i = [ labels.(i); labels.((i + 1) mod n); labels.((i + 2) mod n) ] in
  (* Batches of 1, 2, 3, ... rows: the initial 4-row capacity doubles
     eight times on the way to 1,000 rows. *)
  let next = ref 0 and size = ref 1 in
  while !next < n do
    let hi = min n (!next + !size) in
    Embjoin.Cache.append c (Helpers.packed_of ~width:3 (List.init (hi - !next) (fun j -> row (!next + j))));
    next := hi;
    incr size
  done;
  Alcotest.(check int) "every row kept" n (Embjoin.Cache.count c);
  Alcotest.(check bool) "rows intact, in order" true
    (List.equal (List.equal Int.equal) (List.init n row) (cache_rows ~width:3 c))

(* The join kernel against the boxed [join_many] oracle over the same
   caches. *)
let check_kernel msg ~width caches =
  let oracle =
    List.filter Embedding.is_total
      (Embjoin.join_many
         (List.map (Embjoin.Cache.to_embeddings ~width) (Array.to_list caches)))
  in
  check_same_embs msg (Embjoin.join_caches ~width caches) oracle

let cache_of ~vids rows =
  let c = Embjoin.Cache.create ~vids in
  Embjoin.Cache.append c (Helpers.packed_of ~width:(Array.length vids) rows);
  c

let test_cache_join_kernel () =
  let v = Array.init 40 (fun i -> li (Printf.sprintf "k%d" i)) in
  (* 3-path chain ?0-?1, ?1-?2, ?2-?3. *)
  let chain =
    [|
      cache_of ~vids:[| 0; 1 |] [ [ v.(0); v.(1) ]; [ v.(2); v.(1) ]; [ v.(3); v.(4) ] ];
      cache_of ~vids:[| 1; 2 |] [ [ v.(1); v.(5) ]; [ v.(1); v.(6) ]; [ v.(4); v.(7) ] ];
      cache_of ~vids:[| 2; 3 |] [ [ v.(5); v.(8) ]; [ v.(7); v.(9) ]; [ v.(7); v.(10) ] ];
    |]
  in
  check_kernel "3-path chain" ~width:4 chain;
  Alcotest.(check int) "chain matches" 4 (List.length (Embjoin.join_caches ~width:4 chain));
  (* No shared vid: the cartesian product. *)
  let cart =
    [|
      cache_of ~vids:[| 0; 1 |] [ [ v.(0); v.(1) ]; [ v.(2); v.(3) ]; [ v.(4); v.(5) ] ];
      cache_of ~vids:[| 2 |] [ [ v.(6) ]; [ v.(7) ] ];
    |]
  in
  check_kernel "cartesian" ~width:3 cart;
  Alcotest.(check int) "cartesian matches" 6 (List.length (Embjoin.join_caches ~width:3 cart));
  (* More than 8 accumulated embeddings: the hash-table path.  The seed
     is the smallest cache, so the 12-row hub cache is joined later with
     a 12-embedding accumulated side. *)
  let hub =
    [|
      cache_of ~vids:[| 0; 1 |] (List.init 12 (fun i -> [ v.(i); v.(20 + (i mod 3)) ]));
      cache_of ~vids:[| 1; 2 |] (List.init 12 (fun i -> [ v.(20 + (i mod 4)); v.(30 + (i mod 5)) ]));
      cache_of ~vids:[| 2; 3; 2 |]
        (List.init 12 (fun i -> [ v.(30 + (i mod 5)); v.(i); v.(30 + (i mod 5)) ]));
    |]
  in
  check_kernel "hash-joined side" ~width:4 hub;
  Alcotest.(check bool) "hash-joined side non-trivial" true
    (List.length (Embjoin.join_caches ~width:4 hub) > 8);
  (* An empty cache annihilates. *)
  check_kernel "empty operand" ~width:4 [| chain.(0); Embjoin.Cache.create ~vids:[| 1; 2 |]; chain.(2) |]

let suite =
  [
    Alcotest.test_case "tuple basics" `Quick test_tuple_basics;
    Alcotest.test_case "relation dedup/remove" `Quick test_relation_dedup_and_remove;
    Alcotest.test_case "relation index modes" `Quick test_relation_index_modes;
    Alcotest.test_case "probe_scan / scan_probing" `Quick test_probe_scan;
    Alcotest.test_case "deletion indexes (prefix/hinge)" `Quick test_deletion_indexes;
    Alcotest.test_case "index bucket hygiene" `Quick test_index_bucket_hygiene;
    Alcotest.test_case "column chain order" `Quick test_chain_order;
    Alcotest.test_case "column tombstones and growth" `Quick test_chain_tombstones_and_growth;
    Alcotest.test_case "column chain row reuse" `Quick test_chain_row_reuse;
    Alcotest.test_case "column probe miss" `Quick test_chain_miss;
    Alcotest.test_case "column keys after churn" `Quick test_chain_buckets_after_churn;
    Alcotest.test_case "embedding" `Quick test_embedding;
    Alcotest.test_case "embedding joins" `Quick test_embjoin;
    Alcotest.test_case "cache append enforces equalities" `Quick test_cache_append_equalities;
    Alcotest.test_case "cache subtract" `Quick test_cache_subtract;
    Alcotest.test_case "cache growth" `Quick test_cache_growth;
    Alcotest.test_case "cache join kernel = join_many" `Quick test_cache_join_kernel;
  ]
