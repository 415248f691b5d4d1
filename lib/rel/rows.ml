(* Width-stride flat int-array arena with a freelist.  See rows.mli for
   the ownership story; everything here is raw ints — Label/Tuple
   conversions stay in Relation. *)

module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(cap = 4) () = { data = Array.make (max 1 cap) 0; len = 0 }
  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Rows.Vec.get: index out of bounds";
    v.data.(i)

  let push v x =
    if v.len = Array.length v.data then begin
      let grown = Array.make (2 * Array.length v.data) 0 in
      Array.blit v.data 0 grown 0 v.len;
      v.data <- grown
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let swap_remove v i =
    if i < 0 || i >= v.len then invalid_arg "Rows.Vec.swap_remove: index out of bounds";
    v.len <- v.len - 1;
    v.data.(i) <- v.data.(v.len)

  let remove_value v x =
    let rec find i = if i >= v.len then -1 else if v.data.(i) = x then i else find (i + 1) in
    let i = find 0 in
    if i < 0 then false
    else begin
      swap_remove v i;
      true
    end

  let iter f v =
    for i = 0 to v.len - 1 do
      f v.data.(i)
    done

  let exists p v =
    let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
    go 0

  let to_list v =
    let acc = ref [] in
    for i = v.len - 1 downto 0 do
      acc := v.data.(i) :: !acc
    done;
    !acc

  let clear v = v.len <- 0
  let words v = Array.length v.data + 3
end

type t = {
  w : int;
  mutable data : int array; (* rows_cap * w cells *)
  mutable rows_cap : int;
  mutable high : int; (* slots ever touched; live and freed ids are < high *)
  freelist : Vec.t;
  mutable live_count : int;
  mutable live_map : Bytes.t; (* one byte per slot: '\001' iff live *)
}

let create ?(expect = 0) ~width () =
  if width < 1 then invalid_arg "Rows.create: width must be >= 1";
  let cap = max 16 expect in
  {
    w = width;
    data = Array.make (cap * width) 0;
    rows_cap = cap;
    high = 0;
    freelist = Vec.create ();
    live_count = 0;
    live_map = Bytes.make cap '\000';
  }

let width a = a.w
let live a = a.live_count
let capacity a = a.rows_cap
let free_count a = Vec.length a.freelist
let high_water a = a.high

let reserve a extra =
  let need = a.high + extra in
  if need > a.rows_cap then begin
    let cap = ref (max 16 a.rows_cap) in
    while !cap < need do
      cap := !cap * 2
    done;
    let data = Array.make (!cap * a.w) 0 in
    Array.blit a.data 0 data 0 (a.high * a.w);
    a.data <- data;
    let map = Bytes.make !cap '\000' in
    Bytes.blit a.live_map 0 map 0 a.high;
    a.live_map <- map;
    a.rows_cap <- !cap
  end

let is_live a r = r >= 0 && r < a.high && Bytes.unsafe_get a.live_map r <> '\000'

let alloc a =
  let r =
    let n = Vec.length a.freelist in
    if n > 0 then begin
      let r = Vec.get a.freelist (n - 1) in
      Vec.swap_remove a.freelist (n - 1);
      r
    end
    else begin
      if a.high = a.rows_cap then reserve a 1;
      let r = a.high in
      a.high <- a.high + 1;
      r
    end
  in
  Bytes.set a.live_map r '\001';
  a.live_count <- a.live_count + 1;
  r

let free a r =
  if not (is_live a r) then invalid_arg "Rows.free: row not live";
  Bytes.set a.live_map r '\000';
  a.live_count <- a.live_count - 1;
  Vec.push a.freelist r

let get a r c = a.data.((r * a.w) + c)
let set a r c v = a.data.((r * a.w) + c) <- v
let write a r src off = Array.blit src off a.data (r * a.w) a.w
let blit_row a r dst off = Array.blit a.data (r * a.w) dst off a.w
let read a r = Array.sub a.data (r * a.w) a.w

(* Must match Tuple.hash: fold (h * 1000003 + label) land max_int from 17,
   with Label.hash the identity on the interned int. *)
let hash_ints buf ~off ~len =
  let h = ref 17 in
  for i = off to off + len - 1 do
    h := ((!h * 1000003) + (buf.(i) land max_int)) land max_int
  done;
  !h

let hash_cols a r ~lo ~len = hash_ints a.data ~off:((r * a.w) + lo) ~len
let hash_row a r = hash_cols a r ~lo:0 ~len:a.w
let hash_prefix a r = hash_cols a r ~lo:0 ~len:(a.w - 1)

let hash_hinge a r =
  if a.w < 2 then invalid_arg "Rows.hash_hinge: width < 2";
  hash_cols a r ~lo:(a.w - 2) ~len:2

let equal_cols a r ~lo buf ~off ~len =
  let base = (r * a.w) + lo in
  let rec go i = i >= len || (a.data.(base + i) = buf.(off + i) && go (i + 1)) in
  go 0

let equal_rows a r1 r2 =
  let b1 = r1 * a.w and b2 = r2 * a.w in
  let rec go i = i >= a.w || (a.data.(b1 + i) = a.data.(b2 + i) && go (i + 1)) in
  go 0

let compare_on a ~col r1 r2 =
  let b1 = r1 * a.w and b2 = r2 * a.w in
  let c = Int.compare a.data.(b1 + col) a.data.(b2 + col) in
  if c <> 0 then c
  else begin
    let rec go i =
      if i >= a.w then 0
      else
        let c = Int.compare a.data.(b1 + i) a.data.(b2 + i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let iter_live f a =
  for r = 0 to a.high - 1 do
    if Bytes.unsafe_get a.live_map r <> '\000' then f r
  done

(* -- Packed row batches ----------------------------------------------------- *)

type packed = { p_width : int; p_count : int; p_data : int array }

let pack a v =
  let n = Vec.length v in
  let data = Array.make (max 1 (n * a.w)) 0 in
  for i = 0 to n - 1 do
    Array.blit a.data (Vec.get v i * a.w) data (i * a.w) a.w
  done;
  { p_width = a.w; p_count = n; p_data = data }

let packed_empty ~width = { p_width = width; p_count = 0; p_data = [||] }

let packed_concat ~width ps =
  let n = List.fold_left (fun acc p -> acc + p.p_count) 0 ps in
  let data = Array.make (max 1 (n * width)) 0 in
  let off = ref 0 in
  List.iter
    (fun p ->
      if p.p_width <> width then invalid_arg "Rows.packed_concat: width mismatch";
      Array.blit p.p_data 0 data !off (p.p_count * width);
      off := !off + (p.p_count * width))
    ps;
  { p_width = width; p_count = n; p_data = data }
let packed_width p = p.p_width
let packed_count p = p.p_count
let packed_get p i c = p.p_data.((i * p.p_width) + c)
let packed_row p i = Array.sub p.p_data (i * p.p_width) p.p_width
let packed_data p = p.p_data

let words a =
  Array.length a.data + Vec.words a.freelist + ((Bytes.length a.live_map + 7) / 8) + 8

(* -- Audit ------------------------------------------------------------------ *)

let audit a =
  let findings = ref [] in
  let report detail = findings := ("arena-integrity", detail) :: !findings in
  let on_freelist = Bytes.make (max 1 a.high) '\000' in
  Vec.iter
    (fun r ->
      if r < 0 || r >= a.high then
        report (Printf.sprintf "freelist entry %d outside [0, %d)" r a.high)
      else begin
        if Bytes.get a.live_map r <> '\000' then
          report (Printf.sprintf "live row %d on the freelist" r);
        if Bytes.get on_freelist r <> '\000' then
          report (Printf.sprintf "row %d on the freelist twice" r)
        else Bytes.set on_freelist r '\001'
      end)
    a.freelist;
  let stranded = ref 0 and live_pop = ref 0 in
  for r = 0 to a.high - 1 do
    if Bytes.get a.live_map r <> '\000' then incr live_pop
    else if Bytes.get on_freelist r = '\000' then incr stranded
  done;
  if !stranded > 0 then
    report
      (Printf.sprintf "%d dead slot(s) below the high-water mark missing from the freelist"
         !stranded);
  if !live_pop <> a.live_count then
    report
      (Printf.sprintf "live counter %d but liveness map holds %d row(s)" a.live_count
         !live_pop);
  List.rev !findings

(* -- Test-only corruption hooks --------------------------------------------- *)

module Corrupt = struct
  let leak_live_row a =
    let leaked = ref false in
    (try
       iter_live
         (fun r ->
           Vec.push a.freelist r;
           leaked := true;
           raise Exit)
         a
     with Exit -> ());
    !leaked

  let lose_free_slot a =
    let n = Vec.length a.freelist in
    if n = 0 then false
    else begin
      Vec.swap_remove a.freelist (n - 1);
      true
    end
end

let pp fmt a =
  Format.fprintf fmt "arena w=%d live=%d cap=%d free=%d high=%d" a.w a.live_count
    a.rows_cap (free_count a) a.high
