(* The secpol benchmark.

     main.exe --workload serve-hot|serve-journaled|analyze --seed N
                --seconds S --trace 0|1 [--tiny] [--corrupt-expectations]

   Runs one seeded workload for about S seconds, checks every output, and
   prints the results: readable lines first, then a JSON line with the
   run's context (seed, nproc, OCaml version, sample counts per phase,
   the workload's own figures), and last a JSON line with exactly
   [correct], [attempted], [failed] and [metrics]. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones
   from a traced run (spans written under .bench_out/). --tiny shrinks
   the work for the smoke test; --corrupt-expectations tampers with the
   oracle, which the check must catch. *)

(* The declared metrics, as in BENCHMARK.json. Every run prints all of
   its set; a layer a workload bypasses reads 0. *)
let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_tail_us", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("server.step_us_per_req", "us");
    ("server.reqs_per_step", "count");
    ("server.queue_wait_p50_us", "us");
    ("wire.client_us_per_req", "us");
    ("cache.hit_ratio", "ratio");
    ("cache.key_us", "us");
    ("taint.monitor_us", "us");
    ("journal.run_us", "us");
    ("journal.bytes_per_req", "B");
    ("stage_sum_us", "us");
    ("analyze.soundness_ms", "ms");
    ("analyze.ratio_ms", "ms");
    ("analyze.maximal_ms", "ms");
    ("probe.leakage_ms", "ms");
    ("staticflow.certify_ms", "ms");
    ("refine.runs", "count");
    ("refine.saved", "count");
    ("refine.saved_ratio", "ratio");
    ("engine.cache_hits", "count");
    ("engine.cache_misses", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
    ("trace.spans", "count");
    ("self.bench_us_per_op", "us");
    ("self.wire_us_per_op", "us");
    ("self.server_us_per_op", "us");
    ("self.analyze_us_per_op", "us");
    ("self.probe_us_per_op", "us");
    ("self.staticflow_us_per_op", "us");
  ]

let workloads = [ "serve-hot"; "serve-journaled"; "analyze" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-hot|serve-journaled|analyze --seed N \
     --seconds S --trace 0|1 [--tiny] [--corrupt-expectations]";
  exit 2

let json_float x =
  if not (Float.is_finite x) then failwith "non-finite metric"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metric_json (m : Outcome.metric) =
  json_obj [ ("value", json_float m.Outcome.value); ("unit", json_string m.Outcome.unit_) ]

(* Exactly the declared set, in declared order; a workload metric that is
   not declared, or one with the wrong unit, is a bug in the benchmark. *)
let complete declared (ms : Outcome.metric list) =
  List.iter
    (fun (m : Outcome.metric) ->
      match List.assoc_opt m.Outcome.name declared with
      | Some u when u = m.Outcome.unit_ -> ()
      | _ -> failwith ("undeclared metric " ^ m.Outcome.name ^ " " ^ m.Outcome.unit_))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Outcome.metric) -> m.Outcome.name = name) ms with
      | Some m -> m
      | None -> Outcome.metric name unit_ 0.)
    declared

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) and trace = ref (-1) in
  let tiny = ref false and corrupt = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--tiny", Arg.Set tiny, " smoke-test size");
      ("--corrupt-expectations", Arg.Set corrupt, " tamper with the oracle");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun _ -> usage ()) "main.exe"
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  let trace = !trace = 1 in
  (* Spans of a traced run go to .bench_out/, inside the checkout. *)
  let spans_out =
    Filename.concat ".bench_out" (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)
  in
  if trace && not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
  let seconds = float_of_int !seconds in
  let o =
    match !workload with
    | "analyze" ->
        Analysis.run ~seed:!seed ~seconds ~trace ~tiny:!tiny ~corrupt:!corrupt ~spans_out
    | w ->
        let kind = if w = "serve-hot" then Serve.Hot else Serve.Journaled in
        Serve.run ~kind ~seed:!seed ~seconds ~trace ~tiny:!tiny ~corrupt:!corrupt
          ~spans_out
  in
  let metrics = complete (if trace then per_layer else end_to_end) o.Outcome.metrics in
  Printf.printf "secpol benchmark: workload %s, seed %d, %s run, nproc %d, OCaml %s\n"
    !workload !seed
    (if trace then "traced" else "untraced")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  List.iter
    (fun (m : Outcome.metric) ->
      Printf.printf "  %-28s %14.4f %s\n" m.Outcome.name m.Outcome.value m.Outcome.unit_)
    (o.Outcome.figures @ metrics);
  Printf.printf "  attempted %d, failed %d, correct %b\n" o.Outcome.attempted
    o.Outcome.failed o.Outcome.correct;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) o.Outcome.problems;
  print_endline
    (json_obj
       [
         ("workload", json_string !workload);
         ("seed", string_of_int !seed);
         ("seconds", json_float seconds);
         ("trace", string_of_bool trace);
         ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", json_string Sys.ocaml_version);
         ( "samples",
           json_obj (List.map (fun (k, n) -> (k, string_of_int n)) o.Outcome.samples) );
         ( "figures",
           json_obj
             (List.map (fun (m : Outcome.metric) -> (m.Outcome.name, metric_json m)) o.Outcome.figures) );
         ("spans", json_string (if trace then spans_out else ""));
       ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool o.Outcome.correct);
         ("attempted", string_of_int o.Outcome.attempted);
         ("failed", string_of_int o.Outcome.failed);
         ( "metrics",
           json_obj (List.map (fun (m : Outcome.metric) -> (m.Outcome.name, metric_json m)) metrics) );
       ])
