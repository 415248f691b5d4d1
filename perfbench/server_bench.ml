(* The server layers, traced as part of snb-insert's traced run: Publish
   on the socket -> Puback / Notify through the subscription server, run
   in a forked child by [Server.run] with [default_config] (TRIC+, one
   shard, journal and snapshots on).

   One process offers the load over two connections: a publisher and a
   subscriber holding every query, acking every 64 notifications.  Two
   phases, in stream order: a closed loop (next publish when the previous
   puback arrives), then the reference rate, timed from when each publish
   was due.  The subscriber only files raw notification payloads while
   the load runs; they are decoded and checked against an in-process
   replay afterwards.  The closed-loop publishes are then replayed in
   process layer by layer. *)

open Common
module E = Tric_engine
module G = Tric_graph
module S = Tric_server
module Binio = Tric_engine.Binio

let qdb = 200
let closed_count = 12_800
let ack_every = 64
let cid_sub = "sub"

let reference_s = 5.0
let drain_timeout_s = 10.0
let reference_count = Float.to_int (reference_rate *. reference_s)
let stream_len = closed_count + reference_count

type phase = { first : int; count : int; rate : float option }

(* -- non-blocking connection with a flat output buffer ------------------ *)

type conn = {
  fd : Unix.file_descr;
  dec : S.Frame.decoder;
  mutable obuf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let push c s =
  let len = String.length s in
  if c.hi + len > Bytes.length c.obuf then begin
    let live = c.hi - c.lo in
    let cap = max (2 * (live + len)) (Bytes.length c.obuf) in
    let nb = if cap > Bytes.length c.obuf then Bytes.create cap else c.obuf in
    Bytes.blit c.obuf c.lo nb 0 live;
    c.obuf <- nb;
    c.lo <- 0;
    c.hi <- live
  end;
  Bytes.blit_string s 0 c.obuf c.hi len;
  c.hi <- c.hi + len

let pending c = c.hi > c.lo

let flush_some c =
  if pending c then
    match Unix.write c.fd c.obuf c.lo (c.hi - c.lo) with
    | n ->
      c.lo <- c.lo + n;
      if c.lo = c.hi then begin
        c.lo <- 0;
        c.hi <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let send c msg = push c (S.Frame.encode (S.Wire.encode msg))

let connect path =
  let deadline = now () +. 10.0 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      go ()
  in
  let fd = go () in
  Unix.set_nonblock fd;
  { fd; dec = S.Frame.decoder (); obuf = Bytes.create 65536; lo = 0; hi = 0 }

let scratch = Bytes.create 262_144

(* Read what is there; [false] on end of stream. *)
let read_some c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> false
  | n ->
    S.Frame.feed c.dec scratch 0 n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true

let rec next_payload c =
  match S.Frame.next c.dec with
  | Ok p -> p
  | Error e -> failwith ("framing: " ^ e)

and blocking_recv c =
  let deadline = now () +. 30.0 in
  let rec go () =
    match next_payload c with
    | Some p -> (
      match S.Wire.decode p with Ok m -> m | Error e -> failwith ("decode: " ^ e))
    | None ->
      flush_some c;
      let wait = deadline -. now () in
      if wait <= 0.0 then failwith "server did not answer in time";
      (match Unix.select [ c.fd ] (if pending c then [ c.fd ] else []) [] wait with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not (read_some c) then raise End_of_file;
      go ()
  in
  go ()

let flush_all c =
  while pending c do
    ignore (Unix.select [] [ c.fd ] [] 1.0);
    flush_some c
  done

(* -- the server child --------------------------------------------------- *)

(* Server children not yet reaped; killed at exit whatever the path. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

type server = {
  pid : int;
  pub : conn;
  sub : conn;
  qids : int array;  (** server qid of each registered query, in order *)
  useq0 : int;
  register_s : float;
}

(* A stale journal would be recovered, queries and subscribers and all. *)
let remove_stale journal =
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ journal; journal ^ ".snap"; journal ^ ".snap.tmp" ]

let start ~dir queries =
  let sock = Filename.concat dir "srv.sock" and journal = Filename.concat dir "srv.journal" in
  if Sys.file_exists sock then Sys.remove sock;
  remove_stale journal;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* The child must not hold the caller's output pipes open. *)
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let log = Unix.openfile (Filename.concat dir "srv.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Unix.dup2 devnull Unix.stdout;
    Unix.dup2 log Unix.stderr;
    let code =
      match S.Server.run (S.Server.default_config ~sock_path:sock ~journal_path:journal) with
      | () -> 0
      | exception e ->
        prerr_endline ("server: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    live := pid :: !live;
    let sub = connect sock in
    send sub (S.Wire.Hello { cid = cid_sub; last_seen = -1 });
    let useq0 =
      match blocking_recv sub with
      | S.Wire.Welcome { useq; _ } -> useq
      | _ -> failwith "expected Welcome"
    in
    let t_reg = now () in
    List.iter
      (fun p ->
        send sub
          (S.Wire.Register
             { name = Tric_query.Pattern.name p; pattern = Tric_query.Parse.pattern_to_string p }))
      queries;
    flush_all sub;
    let qids =
      Array.of_list
        (List.map
           (fun _ ->
             match blocking_recv sub with
             | S.Wire.Registered { qid } -> qid
             | S.Wire.Err { reason } -> failwith ("register: " ^ reason)
             | msg ->
               failwith
                 (Printf.sprintf "expected Registered, got a message of tag %d"
                    (Char.code (S.Wire.encode msg).[1])))
           queries)
    in
    let register_s = now () -. t_reg in
    let pub = connect sock in
    { pid; pub; sub; qids; useq0; register_s }

(* Ask the server to stop and reap it; kill it if it does not go. *)
let stop srv =
  live := List.filter (fun p -> p <> srv.pid) !live;
  (try
     send srv.pub S.Wire.Quit;
     flush_all srv.pub
   with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
      if now () > deadline then begin
        Unix.kill srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] srv.pid);
        false
      end
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  let clean = reap () in
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) [ srv.pub; srv.sub ];
  clean

(* -- in-process replay: the expected reports ---------------------------- *)

(* The replay registers the distinct server queries under the server's
   qids, so its reports name the same ids the notifications carry. *)
let replay_queries srv queries =
  let seen = Hashtbl.create 256 in
  List.concat
    (List.mapi
       (fun i p ->
         let qid = srv.qids.(i) in
         if Hashtbl.mem seen qid then []
         else begin
           Hashtbl.add seen qid ();
           [ Tric_query.Pattern.with_id p qid ]
         end)
       queries)

(* The server's fan-out of one report to its single subscriber: entries
   per query, embeddings through [Wire.of_embedding], sorted by qid. *)
let fanout_entries (r : E.Report.t) =
  let by_qid = Hashtbl.create 16 in
  List.iter (fun (qid, ms) -> Hashtbl.replace by_qid qid (ms, [])) r.E.Report.matches;
  List.iter
    (fun (qid, rs) ->
      let ms = match Hashtbl.find_opt by_qid qid with Some (ms, _) -> ms | None -> [] in
      Hashtbl.replace by_qid qid (ms, rs))
    r.E.Report.retractions;
  Hashtbl.fold
    (fun qid (ms, rs) acc ->
      { S.Wire.qid; matches = List.map S.Wire.of_embedding ms; retractions = List.map S.Wire.of_embedding rs }
      :: acc)
    by_qid []
  |> List.sort (fun a b -> Int.compare a.S.Wire.qid b.S.Wire.qid)

let normalise_entries es =
  List.sort
    (fun a b -> Int.compare a.S.Wire.qid b.S.Wire.qid)
    (List.map
       (fun e ->
         { e with S.Wire.matches = List.sort compare e.S.Wire.matches; retractions = List.sort compare e.S.Wire.retractions })
       es)

(* -- the load loop ------------------------------------------------------ *)

type st = {
  srv : server;
  frames : string array;  (** framed Publish, pseq = index + 1 *)
  due : float array;
  sent : float array;
  acked : float array;
  copies : int array;  (** notifications received per publish *)
  expect : bool array;  (** replay report non-empty *)
  expect_upto : int array;  (** expected notifications among indices < i *)
  mutable got : int;  (** expected notifications received *)
  mutable payloads : string list;
  mutable errors : string list;
  mutable outstanding : int;
  mutable since_ack : int;
  mutable last_useq : int;
}

let notify_tag = Char.code (S.Wire.encode (S.Wire.Notify { useq = 0; entries = [] })).[1]

let on_pub st t =
  let rec go () =
    match next_payload st.srv.pub with
    | None -> ()
    | Some p ->
      (match S.Wire.decode p with
      | Ok (S.Wire.Puback { pseq; useq }) ->
        let i = pseq - 1 in
        if useq <> st.srv.useq0 + pseq then
          st.errors <- Printf.sprintf "puback pseq %d carries useq %d" pseq useq :: st.errors;
        if Float.is_nan st.acked.(i) then begin
          st.acked.(i) <- t;
          st.outstanding <- st.outstanding - 1
        end
        else st.errors <- Printf.sprintf "duplicate puback for pseq %d" pseq :: st.errors
      | Ok (S.Wire.Err { reason }) -> st.errors <- ("publisher got Err: " ^ reason) :: st.errors
      | Ok _ -> st.errors <- "publisher got an unexpected message" :: st.errors
      | Error e -> st.errors <- ("publisher decode: " ^ e) :: st.errors);
      go ()
  in
  go ()

(* Raw drain: file the payload, read only the tag and useq. *)
let on_sub st =
  let rec go () =
    match next_payload st.srv.sub with
    | None -> ()
    | Some p ->
      if String.length p >= 10 && Char.code p.[1] = notify_tag then begin
        let r = Binio.reader p in
        ignore (Binio.u8 r);
        ignore (Binio.u8 r);
        let useq = Binio.i64 r in
        let i = useq - st.srv.useq0 - 1 in
        if i < 0 || i >= Array.length st.copies then
          st.errors <- Printf.sprintf "notify for unknown useq %d" useq :: st.errors
        else begin
          st.copies.(i) <- st.copies.(i) + 1;
          if st.copies.(i) = 1 && st.expect.(i) then st.got <- st.got + 1
        end;
        st.payloads <- p :: st.payloads;
        st.last_useq <- useq;
        st.since_ack <- st.since_ack + 1;
        if st.since_ack >= ack_every then begin
          send st.srv.sub (S.Wire.Ack { useq });
          st.since_ack <- 0
        end
      end
      else
        st.errors <-
          (match S.Wire.decode p with
          | Ok (S.Wire.Bye { reason }) -> "subscriber evicted: " ^ reason
          | Ok (S.Wire.Err { reason }) -> "subscriber got Err: " ^ reason
          | Ok _ -> "subscriber got an unexpected message"
          | Error e -> "subscriber decode: " ^ e)
          :: st.errors;
      go ()
  in
  go ()

let poll st timeout =
  let pub = st.srv.pub and sub = st.srv.sub in
  let ws = List.filter_map (fun c -> if pending c then Some c.fd else None) [ pub; sub ] in
  match Unix.select [ pub.fd; sub.fd ] ws [] (Float.max 0.0 timeout) with
  | rs, wr, _ ->
    let t = now () in
    List.iter (fun c -> if List.memq c.fd wr then flush_some c) [ pub; sub ];
    if List.memq pub.fd rs then begin
      if not (read_some pub) then failwith "server closed the publisher connection";
      on_pub st t
    end;
    if List.memq sub.fd rs then begin
      if not (read_some sub) then failwith "server closed the subscriber connection";
      on_sub st
    end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Offer one phase and wait until every puback and expected
   notification of it has arrived (or the drain times out). *)
let drive st (ph : phase) =
  let stop = ph.first + ph.count in
  let next = ref ph.first in
  let t0 = now () +. 0.002 in
  (match ph.rate with
  | Some r ->
    for i = ph.first to stop - 1 do
      st.due.(i) <- t0 +. (Float.of_int (i - ph.first) /. r)
    done
  | None -> ());
  let drained () = st.outstanding = 0 && st.got = st.expect_upto.(!next) in
  let deadline = ref Float.infinity in
  let batch = ref [] in
  while (!next < stop || not (drained ())) && now () < !deadline do
    let t = now () in
    (match ph.rate with
    | None ->
      if st.outstanding = 0 && !next < stop then begin
        st.due.(!next) <- t;
        batch := [ !next ];
        incr next
      end
    | Some _ ->
      while !next < stop && st.due.(!next) <= t do
        batch := !next :: !batch;
        incr next
      done);
    List.iter
      (fun i ->
        st.outstanding <- st.outstanding + 1;
        push st.srv.pub st.frames.(i))
      (List.rev !batch);
    flush_some st.srv.pub;
    flush_some st.srv.sub;
    let ts = now () in
    List.iter (fun i -> st.sent.(i) <- ts) !batch;
    batch := [];
    if !next >= stop && !deadline = Float.infinity then deadline := ts +. drain_timeout_s;
    let timeout = match ph.rate with Some _ when !next < stop -> st.due.(!next) -. now () | _ -> 0.05 in
    poll st timeout
  done;
  if st.since_ack > 0 then begin
    send st.srv.sub (S.Wire.Ack { useq = st.last_useq });
    st.since_ack <- 0
  end

let slice a lo hi = Array.sub a lo (hi - lo)
let sub_times a b lo hi = Array.init (hi - lo) (fun k -> a.(lo + k) -. b.(lo + k))

(* -- correctness -------------------------------------------------------- *)

(* Every publish acked; every non-empty replay report delivered exactly
   once with equal normalised entries; nothing else delivered.  Returns
   the number of failed publishes. *)
let verify st ~published ~expected =
  let bad = Array.make published false in
  let problems = ref [] in
  let flag i why =
    if not bad.(i) then problems := Printf.sprintf "publish %d: %s" (i + 1) why :: !problems;
    bad.(i) <- true
  in
  for i = 0 to published - 1 do
    if Float.is_nan st.acked.(i) then flag i "no puback";
    match (st.expect.(i), st.copies.(i)) with
    | true, 0 -> flag i "notification missing"
    | false, 0 | true, 1 -> ()
    | false, _ -> flag i "unexpected notification"
    | true, n -> flag i (Printf.sprintf "notified %d times" n)
  done;
  List.iter
    (fun p ->
      match S.Wire.decode p with
      | Ok (S.Wire.Notify { useq; entries }) ->
        let i = useq - st.srv.useq0 - 1 in
        if i < published && st.expect.(i) then
          if normalise_entries entries <> expected.(i) then flag i "entries differ from the replay"
      | _ -> problems := "undecodable notification" :: !problems)
    st.payloads;
  let failed = Array.fold_left (fun n b -> if b then n + 1 else n) 0 bad in
  (failed + List.length st.errors, !problems @ st.errors)

(* -- the workload ------------------------------------------------------- *)

let sizes =
  [
    ("edges", J.int stream_len);
    ("queries", J.int qdb);
    ("engine", J.Str "TRIC+");
    ("shards", J.int 1);
    ("closed_loop_publishes", J.int closed_count);
    ("ack_every", J.int ack_every);
    ("reference_s", J.Num reference_s);
    ("reference_ups", J.Num reference_rate);
    ("gen_late_limit_ms", J.Num (ms gen_late_limit_s));
  ]

type prepared = {
  st : st;
  expected : S.Wire.entry list array;  (** normalised, for non-empty reports *)
  queries : Tric_query.Pattern.t list;
}

(* A fresh server with every query of the dataset registered, and the
   expectations the load loop drains against: the reports of an
   in-process engine fed the same stream. *)
let prepare ~dir ~seed =
  let d = snb ~seed ~edges:stream_len ~qdb in
  let updates = Array.sub (Array.of_list (G.Stream.to_list d.stream)) 0 stream_len in
  let frames =
    Array.mapi
      (fun i u ->
        S.Frame.encode (S.Wire.encode (S.Wire.Publish { pseq = i + 1; update = Tric_query.Parse.update_to_string u })))
      updates
  in
  let srv = start ~dir d.queries in
  let replay = Engine_bench.tric ~metrics:false () in
  List.iter replay.E.Matcher.add_query (replay_queries srv d.queries);
  let nan () = Array.make stream_len Float.nan in
  let st =
    {
      srv;
      frames;
      due = nan ();
      sent = nan ();
      acked = nan ();
      copies = Array.make stream_len 0;
      expect = Array.make stream_len false;
      expect_upto = Array.make (stream_len + 1) 0;
      got = 0;
      payloads = [];
      errors = [];
      outstanding = 0;
      since_ack = 0;
      last_useq = 0;
    }
  in
  let expected = Array.make stream_len [] in
  Array.iteri
    (fun i u ->
      let r = replay.E.Matcher.handle_update u in
      if not (E.Report.is_empty r) then begin
        st.expect.(i) <- true;
        expected.(i) <- normalise_entries (fanout_entries r)
      end;
      st.expect_upto.(i + 1) <- st.expect_upto.(i) + if st.expect.(i) then 1 else 0)
    updates;
  replay.E.Matcher.shutdown ();
  { st; expected; queries = d.queries }

let run_phase p (ph : phase) =
  (* Settle the generator's own heap so a major slice does not land
     inside the phase. *)
  Gc.full_major ();
  drive p.st ph

(* Stop the server and check what it delivered; returns the failures. *)
let finish p =
  let clean = stop p.st.srv in
  let late =
    let st = p.st in
    Stats.percentile
      (Array.init reference_count (fun k -> st.sent.(closed_count + k) -. st.due.(closed_count + k)))
      95.0
  in
  let failed, problems = verify p.st ~published:stream_len ~expected:p.expected in
  let problems =
    (if clean then [] else [ "server did not exit cleanly" ])
    @ (if late > gen_late_limit_s then
         [ Printf.sprintf "generator p95 lateness %.2f ms (limit %.1f ms)" (ms late) (ms gen_late_limit_s) ]
       else [])
    @ problems
  in
  List.iteri (fun i s -> if i < 20 then prerr_endline s) problems;
  failed + (if clean then 0 else 1) + if late > gen_late_limit_s then 1 else 0

let lateness st lo hi = Stats.lateness ~due:(slice st.due lo hi) ~sent:(slice st.sent lo hi)

(* -- traced run ---------------------------------------------------------- *)

type layers = {
  frame : float;
  wire : float;
  parse : float;
  journal : float;  (** Journal.handle_update, engine included *)
  fanout : float;
  outbox : float;
  engine : float;  (** the engine calls behind the journal *)
  journal_bytes : int;
  notify_bytes : int;
}

(* Replay publishes [lo, hi) in process through the server's layers —
   Frame -> Wire -> Parse -> Journal (around a timed engine) -> fan-out
   entries and Wire/Frame encoding -> Outbox — timing each call from
   here. *)
let layered_replay ~dir ~queries (frames : string array) lo hi =
  let cfg = S.Server.default_config ~sock_path:"" ~journal_path:"" in
  let tm = Trace.timed () in
  let path = Filename.concat dir "replay.journal" in
  remove_stale path;
  let jr = E.Journal.open_ ~path (fun () -> Trace.wrap tm (Engine_bench.tric ~metrics:false ())) in
  List.iter (E.Journal.add_query jr) queries;
  let size0 = (Unix.stat path).Unix.st_size in
  let dec = S.Frame.decoder () in
  let ob = S.Outbox.create ~soft:cfg.S.Server.outbox_soft ~hard:cfg.S.Server.outbox_hard in
  let frame = ref 0.0 and wire = ref 0.0 and parse = ref 0.0 and journal = ref 0.0 in
  let fanout = ref 0.0 and outbox = ref 0.0 and notify_bytes = ref 0 and sent = ref 0 in
  for i = lo to hi - 1 do
    let f = frames.(i) in
    let t0 = now () in
    S.Frame.feed dec (Bytes.unsafe_of_string f) 0 (String.length f);
    let payload = match S.Frame.next dec with Ok (Some p) -> p | _ -> failwith "replay: bad frame" in
    let t1 = now () in
    let pseq, update =
      match S.Wire.decode payload with
      | Ok (S.Wire.Publish { pseq; update }) -> (pseq, update)
      | _ -> failwith "replay: bad publish"
    in
    let t2 = now () in
    let u = Tric_query.Parse.update update in
    let t3 = now () in
    let report = E.Journal.handle_update jr u in
    let t4 = now () in
    let useq = i + 1 in
    let entries = fanout_entries report in
    let puback = S.Frame.encode (S.Wire.encode (S.Wire.Puback { pseq; useq })) in
    let t5 = now () in
    let item =
      if entries = [] then None
      else begin
        ignore (S.Outbox.push ob { S.Outbox.useq; entries });
        let it = S.Outbox.take_to_send ob in
        incr sent;
        if !sent mod ack_every = 0 then S.Outbox.ack ob useq;
        it
      end
    in
    let t6 = now () in
    let bytes =
      match item with
      | Some it ->
        String.length
          (S.Frame.encode (S.Wire.encode (S.Wire.Notify { useq = it.S.Outbox.useq; entries = it.S.Outbox.entries })))
      | None -> 0
    in
    let t7 = now () in
    ignore puback;
    frame := !frame +. (t1 -. t0);
    wire := !wire +. (t2 -. t1);
    parse := !parse +. (t3 -. t2);
    journal := !journal +. (t4 -. t3);
    fanout := !fanout +. (t5 -. t4) +. (t7 -. t6);
    outbox := !outbox +. (t6 -. t5);
    notify_bytes := !notify_bytes + bytes
  done;
  let journal_bytes = (Unix.stat path).Unix.st_size - size0 in
  E.Journal.close jr;
  {
    frame = !frame;
    wire = !wire;
    parse = !parse;
    journal = !journal;
    fanout = !fanout;
    outbox = !outbox;
    engine = tm.Trace.busy;
    journal_bytes;
    notify_bytes = !notify_bytes;
  }

(* The server's own gauges, read over the socket. *)
let server_gauges srv =
  send srv.pub (S.Wire.Stats { format = "json" });
  let body =
    let rec wait () =
      match blocking_recv srv.pub with S.Wire.Stats_reply { body } -> body | _ -> wait ()
    in
    wait ()
  in
  let value name =
    match J.parse body with
    | Ok doc -> (
      match Option.bind (J.member "metrics" doc) J.as_list with
      | Some ms ->
        List.fold_left
          (fun acc mt ->
            match (Option.bind (J.member "name" mt) J.as_string, Option.bind (J.member "value" mt) J.as_number) with
            | Some n, Some v when n = name -> v
            | _ -> acc)
          0.0 ms
      | None -> 0.0)
    | Error _ -> 0.0
  in
  (value "srv_outbox_depth_hwm", value "srv_coalesced_pairs")

(* Closed loop and reference rate over the socket, then the same closed-
   loop publishes replayed in process layer by layer; the closed-loop
   puback time the in-process layers do not account for is the socket
   and the event loop.  Returns the server-layer metrics only. *)
let traced ~seed ~dir =
  let p = prepare ~dir ~seed in
  let st = p.st in
  let closed = { first = 0; count = closed_count; rate = None } in
  let reference = { first = closed_count; count = reference_count; rate = Some reference_rate } in
  run_phase p closed;
  run_phase p reference;
  let late = lateness st reference.first stream_len in
  let hwm, coalesced = server_gauges st.srv in
  let failed = finish p in
  let n = closed_count in
  Gc.compact ();
  let l = layered_replay ~dir ~queries:p.queries st.frames 0 n in
  let per x = x /. Float.of_int n in
  let cl_mean = Stats.mean (sub_times st.acked st.due 0 n) in
  let in_process = [ l.frame; l.wire; l.parse; l.journal; l.fanout; l.outbox ] in
  Trace.print_table ~title:"closed-loop puback, per publish x publishes" ~total:(cl_mean *. Float.of_int n)
    [
      ("frame decode", l.frame);
      ("wire decode", l.wire);
      ("parse update", l.parse);
      ("journal self", l.journal -. l.engine);
      ("engine", l.engine);
      ("fan-out + encode", l.fanout);
      ("outbox", l.outbox);
    ];
  let measured =
    [
      ("server.register_s", st.srv.register_s);
      ("server.frame_decode_us", us (per l.frame));
      ("server.wire_decode_us", us (per l.wire));
      ("query.parse_update_us", us (per l.parse));
      ("engine.journal.self_us", us (per (Stats.self_time ~total:l.journal ~children:[ l.engine ])));
      ("engine.journal.bytes_per_update", per (Float.of_int l.journal_bytes));
      ("server.fanout_encode_us", us (per l.fanout));
      ("server.outbox_us", us (per l.outbox));
      ("server.notify_bytes_per_update", per (Float.of_int l.notify_bytes));
      ("server.outbox_depth_hwm", hwm);
      ("server.coalesced_pairs", coalesced);
      ("server.socket_residual_frac", Stats.residual_frac ~total:cl_mean ~parts:(List.map per in_process));
      ("server.gen_late_max_ms", ms late);
    ]
  in
  {
    metrics = List.map (fun (name, v) -> m name (List.assoc name per_layer) v) measured;
    attempted = stream_len;
    failed;
    sizes;
  }
