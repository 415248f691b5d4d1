(* Benchmark entry point (normally started by run.py, which builds it):

     main.exe --workload snb-insert|snb-window --seed N
              --seconds S --trace 0|1 --tmpdir DIR [--fingerprint JSON]
     main.exe selftest

   Prints a fingerprint line, then as its last line one JSON object with
   [correct], [attempted], [failed] and [metrics]; exits 1 when any
   correctness check failed. *)

open Common

let workloads = [ "snb-insert"; "snb-window" ]

(* The engine and server read these silently (Engines.by_name,
   Runner.run); the benchmark pins every parameter instead. *)
let pinned_env = [ "TRIC_SHARDS"; "TRIC_METRICS"; "TRIC_WINDOW"; "TRIC_AUDIT" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload <snb-insert|snb-window> --seed <n> --seconds <s> \
     --trace <0|1> --tmpdir <dir> [--fingerprint <json>] | main.exe selftest";
  exit 2

let parse args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let required opts k = match List.assoc_opt k opts with Some v -> v | None -> usage ()

let num_of_json v = J.Num v

(* The server layers are traced on the insert workload too (closed loop
   and reference rate over the socket, then the in-process layered
   replay), so every layer has figures from a listed workload; the
   engine-side figures stay the insert workload's own. *)
let with_server_layers (engine : outcome) (server : outcome) =
  let server_value x = List.find_opt (fun s -> s.name = x.name) server.metrics in
  {
    metrics = List.map (fun x -> Option.value ~default:x (server_value x)) engine.metrics;
    attempted = engine.attempted + server.attempted;
    failed = engine.failed + server.failed;
    sizes = engine.sizes @ [ ("server", J.Obj server.sizes) ];
  }

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> exit (Selftest.run ())
  | args ->
    let opts = parse args in
    let workload = required opts "workload" in
    if not (List.mem workload workloads) then usage ();
    let seed = match int_of_string_opt (required opts "seed") with Some n -> n | None -> usage () in
    let seconds =
      match float_of_string_opt (required opts "seconds") with Some s when s > 0.0 -> s | _ -> usage ()
    in
    let trace = match required opts "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let dir = required opts "tmpdir" in
    (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
    | [] -> ()
    | set ->
      Printf.eprintf "refusing to run: %s set in the environment; the benchmark pins every engine parameter\n"
        (String.concat ", " set);
      exit 2);
    if Selftest.run () <> 0 then exit 1;
    let o =
      try
      match (workload, trace) with
      | "snb-insert", false -> Engine_bench.run Engine_bench.Insert ~seed ~seconds
      | "snb-insert", true ->
        with_server_layers (Engine_bench.traced Engine_bench.Insert ~seed) (Server_bench.traced ~seed ~dir)
      | _, false -> Engine_bench.run Engine_bench.Window ~seed ~seconds
      | _, true -> Engine_bench.traced Engine_bench.Window ~seed
      with e ->
        Printf.eprintf "benchmark failed: %s\n%!" (Printexc.to_string e);
        exit 1
    in
    let given =
      match List.assoc_opt "fingerprint" opts with
      | None -> []
      | Some s -> (
        match J.parse s with Ok (J.Obj kv) -> kv | _ -> [ ("fingerprint_arg", J.Str s) ])
    in
    let fingerprint =
      J.Obj
        (given
        @ [
            ("nproc", J.int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("workload", J.Str workload);
            ("seed", J.int seed);
            ("seconds", num_of_json seconds);
            ("trace", J.Bool trace);
            ("sizes", J.Obj o.sizes);
          ])
    in
    print_endline (J.to_string (J.Obj [ ("fingerprint", fingerprint) ]));
    List.iter (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.name x.value x.unit_) o.metrics;
    let correct = o.failed = 0 in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool correct);
              ("attempted", J.int o.attempted);
              ("failed", J.int o.failed);
              ( "metrics",
                J.Obj
                  (List.map
                     (fun x -> (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit_) ]))
                     o.metrics) );
            ]));
    exit (if correct then 0 else 1)
