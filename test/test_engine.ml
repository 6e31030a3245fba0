(* The parallel enforcement engine: pool scheduling, the compute-once
   verdict cache, sound memoization (soundness makes caching on the
   I-projection legal), and the parallel exhaustive drivers — everything
   promised bit-identical to the sequential code paths, whatever [jobs]. *)

open Util
module Pool = Secpol_engine.Pool
module Cache = Secpol_engine.Cache
module Memo = Secpol_engine.Memo
module Exhaustive = Secpol_engine.Exhaustive
module Report = Secpol_fault.Report
module Sweep = Secpol_fault.Sweep
module Crash = Secpol_fault.Crash
module Json = Secpol_staticflow.Lint.Json
module Paper = Secpol_corpus.Paper_programs
module Generator = Secpol_corpus.Generator
module Compile = Secpol_flowgraph.Compile
module Dynamic = Secpol_taint.Dynamic
module Runner = Secpol_journal.Runner

let all_jobs = [ 1; 2; 4; 7 ]

(* --- pool ----------------------------------------------------------- *)

let test_pool_map_order () =
  let n = 37 in
  let expected = Array.init n (fun i -> i * i) in
  List.iter
    (fun jobs ->
      let got, stats = Pool.map ~jobs n (fun i -> i * i) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d results in index order" jobs)
        expected got;
      Alcotest.(check int) "task_count" n stats.Pool.task_count;
      let tasks, _, _ = Pool.total stats in
      Alcotest.(check int) "worker tasks sum to task_count" n tasks)
    all_jobs

let test_pool_edges () =
  let empty, stats = Pool.map ~jobs:4 0 (fun _ -> assert false) in
  Alcotest.(check int) "empty map" 0 (Array.length empty);
  Alcotest.(check int) "empty task_count" 0 stats.Pool.task_count;
  let got, stats = Pool.map ~jobs:8 3 (fun i -> i) in
  Alcotest.(check (array int)) "n < jobs" [| 0; 1; 2 |] got;
  Alcotest.(check bool) "never more domains than tasks" true
    (stats.Pool.jobs <= 3)

let test_pool_exception () =
  Alcotest.check_raises "failing task's exception propagates"
    (Failure "boom") (fun () ->
      ignore (Pool.map ~jobs:4 40 (fun i -> if i = 17 then failwith "boom" else i)))

let test_pool_run_effects () =
  let hits = Array.make 25 0 in
  let stats = Pool.run ~jobs:4 25 (fun i -> hits.(i) <- hits.(i) + 1) in
  Alcotest.(check (array int)) "each task ran exactly once" (Array.make 25 1) hits;
  Alcotest.(check int) "task_count" 25 stats.Pool.task_count

(* --- cache ----------------------------------------------------------- *)

let q_first = Program.of_fun ~name:"first" ~arity:2 (fun a -> a.(0))
let some_reply i = Mechanism.respond (Mechanism.of_program q_first) (ints [ i; 0 ])

let key ?(digest = "d") ?(tag = "t") i =
  { Cache.digest; tag; projection = Value.int i }

let test_cache_compute_once () =
  let c = Cache.create () in
  let computed = ref 0 in
  let f () = incr computed; some_reply 7 in
  for _ = 1 to 5 do
    let r = Cache.find_or_compute c (key 0) f in
    Alcotest.(check string) "cached reply" (show_mech_reply (some_reply 7))
      (show_mech_reply r)
  done;
  Alcotest.(check int) "computed once" 1 !computed;
  Alcotest.(check int) "one miss" 1 (Cache.misses c);
  Alcotest.(check int) "four hits" 4 (Cache.hits c);
  ignore (Cache.find_or_compute c (key 1) f);
  ignore (Cache.find_or_compute c (key ~tag:"u" 0) f);
  ignore (Cache.find_or_compute c (key ~digest:"e" 0) f);
  Alcotest.(check int) "distinct keys are distinct entries" 4 (Cache.size c)

let test_cache_failure_releases_key () =
  let c = Cache.create () in
  Alcotest.check_raises "compute failure propagates" (Failure "flaky")
    (fun () -> ignore (Cache.find_or_compute c (key 0) (fun () -> failwith "flaky")));
  (* The key was released: the next requester recomputes. *)
  let r = Cache.find_or_compute c (key 0) (fun () -> some_reply 3) in
  Alcotest.(check string) "retry computes" (show_mech_reply (some_reply 3))
    (show_mech_reply r);
  Alcotest.(check int) "only the success is resident" 1 (Cache.size c)

let test_cache_concurrent_compute_once () =
  let c = Cache.create () in
  let computed = Atomic.make 0 in
  let f () = Atomic.incr computed; some_reply 1 in
  let n = 64 in
  ignore (Pool.run ~jobs:4 n (fun _ -> ignore (Cache.find_or_compute c (key 0) f)));
  Alcotest.(check int) "one computation across domains" 1 (Atomic.get computed);
  Alcotest.(check int) "deterministic misses" 1 (Cache.misses c);
  Alcotest.(check int) "deterministic hits" (n - 1) (Cache.hits c)

(* --- memoization ------------------------------------------------------ *)

(* The satellite property, exhaustively: for every corpus program and every
   allow(J) policy, the checked-memoized mechanism agrees with the direct
   one on the whole input space at the view it is sound for, and unsound
   mechanisms bypass the cache untouched. *)

let canonical r =
  let cfg = Soundness.default in
  Soundness.canonicalize cfg (Mechanism.observe cfg.Soundness.view r)

let check_memo_agrees name policy space direct =
  let cache = Cache.create () in
  let g_tag = Printf.sprintf "%s|%s" name (Policy.name policy) in
  let memo, verdict =
    Memo.checked ~cache ~digest:name ~tag:g_tag ~policy ~space direct
  in
  match verdict with
  | Soundness.Unsound _ ->
      Alcotest.(check bool)
        (g_tag ^ ": unsound mechanism returned untouched")
        true (memo == direct)
  | Soundness.Sound ->
      Seq.iter
        (fun a ->
          Alcotest.check obs_testable
            (Printf.sprintf "%s on %s" g_tag (Report.show_input a))
            (canonical (Mechanism.respond direct a))
            (canonical (Mechanism.respond memo a)))
        (Space.enumerate space);
      Alcotest.(check bool) (g_tag ^ ": memoized mechanism stays sound") true
        (Soundness.is_sound policy memo space)

let test_memo_corpus () =
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let arity = e.Paper.prog.Secpol_flowgraph.Ast.arity in
      List.iter
        (fun policy ->
          let direct =
            Dynamic.mechanism
              (Dynamic.config ~mode:Dynamic.Surveillance policy)
              g
          in
          check_memo_agrees e.Paper.name policy e.Paper.space direct)
        (Report.policies_of_arity arity))
    Paper.all

let prop_memo_random_programs =
  qtest ~count:60 "memo(checked) agrees with direct on random programs"
    (Generator.arbitrary Generator.default)
    (fun prog ->
      let g = Compile.compile prog in
      let space = Generator.space_for Generator.default in
      let policy = Policy.allow [ 0 ] in
      let direct =
        Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g
      in
      check_memo_agrees (Runner.graph_hash g) policy space direct;
      true)

let test_memo_exact_any_mechanism () =
  (* Exact keys are sound for any mechanism — including raw Q. *)
  let cache = Cache.create () in
  let e = Paper.find "ex7" in
  let q = Mechanism.of_program (Paper.program e) in
  let memo = Memo.exact ~cache ~digest:"ex7" ~tag:"raw" q in
  Seq.iter
    (fun a ->
      Alcotest.(check string) "exact memo is the identity"
        (show_mech_reply (Mechanism.respond q a))
        (show_mech_reply (Mechanism.respond memo a)))
    (Space.enumerate e.Paper.space);
  (* Second full pass: every lookup is now a hit. *)
  Seq.iter (fun a -> ignore (Mechanism.respond memo a))
    (Space.enumerate e.Paper.space);
  Alcotest.(check int) "misses = distinct inputs" (Space.size e.Paper.space)
    (Cache.misses cache);
  Alcotest.(check int) "hits = repeated inputs" (Space.size e.Paper.space)
    (Cache.hits cache)

(* --- exhaustive drivers (through the Analyze facade) ------------------- *)

module Analyze = Secpol.Analyze

let verdict_str v = Format.asprintf "%a" Soundness.pp_verdict v
let both_algos = [ Analyze.Brute; Analyze.Refine ]

let test_exhaustive_check_parity () =
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let arity = e.Paper.prog.Secpol_flowgraph.Ast.arity in
      List.iter
        (fun policy ->
          let m =
            Dynamic.mechanism
              (Dynamic.config ~mode:Dynamic.Surveillance policy)
              g
          in
          let seq = Soundness.check policy m e.Paper.space in
          List.iter
            (fun jobs ->
              List.iter
                (fun algo ->
                  let cfg = Analyze.config ~jobs ~algo e.Paper.space in
                  let got, _ = Analyze.soundness cfg policy m in
                  Alcotest.(check string)
                    (Printf.sprintf
                       "%s/%s jobs=%d algo=%s: same verdict, same witness"
                       e.Paper.name (Policy.name policy) jobs
                       (Analyze.algo_name algo))
                    (verdict_str seq) (verdict_str got))
                both_algos)
            [ 1; 4 ])
        (Report.policies_of_arity arity))
    Paper.all

let test_exhaustive_check_timed_view () =
  let e = Paper.find "ex7" in
  let p = e.Paper.policy in
  let m =
    Dynamic.mechanism
      (Dynamic.config ~mode:Dynamic.Surveillance p)
      (Paper.graph e)
  in
  let seq = Soundness.check ~config:Soundness.timed p m e.Paper.space in
  List.iter
    (fun algo ->
      let cfg = Analyze.config ~view:`Timed ~jobs:4 ~algo e.Paper.space in
      let got, _ = Analyze.soundness cfg p m in
      Alcotest.(check string)
        (Printf.sprintf "timed view parity (%s)" (Analyze.algo_name algo))
        (verdict_str seq) (verdict_str got))
    both_algos

let test_exhaustive_maximal_parity () =
  List.iter
    (fun name ->
      let e = Paper.find name in
      let q = Paper.program e in
      let p = e.Paper.policy in
      let seq = Maximal.build p q e.Paper.space in
      List.iter
        (fun algo ->
          let cfg = Analyze.config ~jobs:4 ~algo e.Paper.space in
          let got, _ = Analyze.maximal cfg p q in
          Seq.iter
            (fun a ->
              Alcotest.(check string)
                (Printf.sprintf "%s maximal (%s) on %s" name
                   (Analyze.algo_name algo) (Report.show_input a))
                (show_mech_reply (Mechanism.respond seq a))
                (show_mech_reply (Mechanism.respond got a)))
            (Space.enumerate e.Paper.space);
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s granted classes (%s)" name
               (Analyze.algo_name algo))
            (Maximal.granted_classes p q e.Paper.space)
            (fst (Analyze.granted_classes cfg p q));
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "%s maximal ratio (%s)" name
               (Analyze.algo_name algo))
            (Completeness.ratio seq ~q e.Paper.space)
            (fst (Analyze.maximal_ratio cfg p q)))
        both_algos)
    [ "ex7"; "ex8"; "direct-flow" ]

(* --- determinism of the parallel sweeps -------------------------------- *)

(* The headline promise: reduced chaos and crash sweeps render byte-for-byte
   the same report — JSON and text — at jobs=1 and jobs=4. [pool] telemetry
   is outside both renderings by design. *)

let test_sweep_jobs_byte_identity () =
  let entries = [ Paper.find "ex7" ] in
  let at jobs = Sweep.run ~entries ~seeds:30 ~jobs () in
  let r1 = at 1 and r4 = at 4 in
  Alcotest.(check string) "chaos JSON identical across jobs"
    (Sweep.to_json_string r1) (Sweep.to_json_string r4);
  Alcotest.(check string) "chaos text identical across jobs"
    (Format.asprintf "%a" Sweep.pp r1)
    (Format.asprintf "%a" Sweep.pp r4);
  Alcotest.(check bool) "sweep is fail-secure" true r1.Sweep.ok;
  (* The cache counters are part of the deterministic report. *)
  let json = Sweep.to_json_string r1 in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec at i = i + n <= h && (String.sub json i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "cache hits visible in the JSON totals" true
    (contains "\"cache_hits\"");
  Alcotest.(check bool) "cache misses visible in the JSON totals" true
    (contains "\"cache_misses\"")

let test_crash_jobs_byte_identity () =
  let entries = [ Paper.find "ex7" ] in
  let at jobs = Crash.run ~entries ~crash_points:4 ~jobs () in
  let r1 = at 1 and r4 = at 4 in
  Alcotest.(check string) "crash JSON identical across jobs"
    (Crash.to_json_string r1) (Crash.to_json_string r4);
  Alcotest.(check string) "crash text identical across jobs"
    (Format.asprintf "%a" Crash.pp r1)
    (Format.asprintf "%a" Crash.pp r4);
  Alcotest.(check bool) "crash sweep is clean" true r1.Crash.ok

(* --- report ordering --------------------------------------------------- *)

let test_report_findings_sorted () =
  let f fields detail = { Report.subject = [ "s" ]; fields; detail } in
  let a = f [ ("k", Json.Int 2) ] "z" in
  let b = f [ ("k", Json.Int 1) ] "y" in
  let c = f [ ("k", Json.Int 1) ] "x" in
  Alcotest.(check bool) "fields dominate" true (Report.compare_finding b a < 0);
  Alcotest.(check bool) "detail breaks ties" true (Report.compare_finding c b < 0);
  let sorted = Report.sort_findings [ a; b; c ] in
  Alcotest.(check (list string)) "stable sorted order" [ "x"; "y"; "z" ]
    (List.map (fun (x : Report.finding) -> x.Report.detail) sorted)

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves index order" `Quick test_pool_map_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edges;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "effect-only run" `Quick test_pool_run_effects;
        ] );
      ( "cache",
        [
          Alcotest.test_case "compute-once, counted" `Quick test_cache_compute_once;
          Alcotest.test_case "failure releases the key" `Quick
            test_cache_failure_releases_key;
          Alcotest.test_case "concurrent compute-once" `Quick
            test_cache_concurrent_compute_once;
        ] );
      ( "memo",
        [
          Alcotest.test_case "corpus x allow(J): memoized = direct" `Slow
            test_memo_corpus;
          prop_memo_random_programs;
          Alcotest.test_case "exact keys deduplicate any mechanism" `Quick
            test_memo_exact_any_mechanism;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "soundness verdict parity" `Slow
            test_exhaustive_check_parity;
          Alcotest.test_case "timed-view parity" `Quick
            test_exhaustive_check_timed_view;
          Alcotest.test_case "maximal mechanism parity" `Quick
            test_exhaustive_maximal_parity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "chaos report byte-identical across jobs" `Slow
            test_sweep_jobs_byte_identity;
          Alcotest.test_case "crash report byte-identical across jobs" `Slow
            test_crash_jobs_byte_identity;
          Alcotest.test_case "findings sorted by stable key" `Quick
            test_report_findings_sorted;
        ] );
    ]
