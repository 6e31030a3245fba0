(* The analyze workload: the cells `secpol measure` computes, over a
   seeded batch of generated programs instead of one corpus entry.

   For each program (arity 2, depth 3, from Secpol_corpus.Generator) over
   the 32x32 space under allow(0), at jobs = 1: the soundness verdict,
   completeness ratio and average leak of the program itself, the four
   Dynamic monitor modes and the static Certify mechanism, then the
   maximal mechanism through Analyze with one Engine.Cache shared by the
   batch. One such set of cells is a report.

   A run is a sequence of rounds, each a fresh batch (seeded by the run's
   seed and the round number) with its own set-up. Throughput is reports
   over all measured time, the latency percentiles pool every report, and
   after each round, untimed, every report is checked against the
   brute-force oracle. *)

module Analyze = Secpol.Analyze
module Cache = Secpol_engine.Cache
module Refine = Secpol_core.Refine
module Maximal = Secpol_core.Maximal
module Soundness = Secpol_core.Soundness
module Mechanism = Secpol_core.Mechanism
module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Space = Secpol_core.Space
module Generator = Secpol_corpus.Generator
module Ast = Secpol_flowgraph.Ast
module Graph = Secpol_flowgraph.Graph
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Certify = Secpol_staticflow.Certify
module Leakage = Secpol_probe.Leakage
module Samples = Stats.Samples

let space = Space.ints ~lo:0 ~hi:31 ~arity:2
let policy = Policy.allow [ 0 ]

let s_report = Spans.name "bench.report"
let s_certify = Spans.name "staticflow.certify"
let s_soundness = Spans.name "analyze.soundness"
let s_ratio = Spans.name "analyze.ratio"
let s_maximal = Spans.name "analyze.maximal"
let s_leakage = Spans.name "probe.leakage"

type subject = { prog : Ast.prog; graph : Graph.t; q : Program.t }

type cell = {
  label : string;
  mech : Mechanism.t;
  verdict : Soundness.verdict;
  ratio : float;
  leak : float;
}

type report = {
  subject : subject;
  cells : cell list;
  maximal : Mechanism.t;
  refine : Refine.stats option;
}

(* Everything before the first timed report: program generation and
   compilation, the shared cache and the Analyze configuration. Program
   names are unique within the batch, as the shared cache requires. *)
let setup ~seed ~round ~batch =
  let rand = Random.State.make [| seed; round |] in
  let gen = Generator.gen Generator.default in
  let subjects =
    Array.init batch (fun i ->
        let prog =
          { (QCheck.Gen.generate1 ~rand gen) with Ast.name = Printf.sprintf "gen-%d" i }
        in
        let graph = Compile.compile prog in
        { prog; graph; q = Interp.graph_program graph })
  in
  let cache = Cache.create () in
  (subjects, cache, Analyze.config ~jobs:1 ~cache space)

let analyze_one sp cfg i s =
  Spans.enter sp s_report i;
  Spans.enter sp s_certify i;
  let certified = Certify.mechanism ~policy s.prog in
  Spans.leave sp;
  let mechs =
    (("program", Mechanism.of_program s.q)
    :: List.map
         (fun mode ->
           ( Dynamic.mode_name mode,
             Dynamic.mechanism (Dynamic.config ~mode policy) s.graph ))
         Dynamic.all_modes)
    @ [ ("certify", certified) ]
  in
  let cells =
    List.map
      (fun (label, mech) ->
        Spans.enter sp s_soundness i;
        let verdict, _ = Analyze.soundness cfg policy mech in
        Spans.leave sp;
        Spans.enter sp s_ratio i;
        let ratio = Analyze.ratio cfg ~q:s.q mech in
        Spans.leave sp;
        Spans.enter sp s_leakage i;
        let leak = (Leakage.of_mechanism policy mech space).Leakage.avg_bits in
        Spans.leave sp;
        { label; mech; verdict; ratio; leak })
      mechs
  in
  Spans.enter sp s_maximal i;
  let maximal, tel = Analyze.maximal cfg policy s.q in
  Spans.leave sp;
  Spans.leave sp;
  { subject = s; cells; maximal; refine = tel.Analyze.refine }

(* ---------- the oracle check (untimed) ---------- *)

let verdict_string v = Format.asprintf "%a" Soundness.pp_verdict v

(* The mechanism's reply on every point of the space, as one digest. *)
let replies_digest m =
  let b = Buffer.create 8192 in
  Seq.iter
    (fun a ->
      Buffer.add_string b (Outcome.show_reply (Mechanism.respond m a));
      Buffer.add_char b '\n')
    (Space.enumerate space);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Each report against algo = Brute: every soundness verdict (witness
   included), the refined class table's fingerprint against the brute
   table's, and the report's maximal mechanism against the brute one on
   every point. [corrupt] tampers with the first report's expectation. *)
let check bad ~corrupt reports =
  let brute = Analyze.config ~algo:Analyze.Brute space in
  List.iteri
    (fun idx r ->
      let s = r.subject in
      let name = s.prog.Ast.name in
      List.iter
        (fun c ->
          let want = verdict_string (fst (Analyze.soundness brute policy c.mech)) in
          let got = verdict_string c.verdict in
          if got <> want then
            Outcome.problem bad
              (Printf.sprintf "%s/%s: soundness %s, brute says %s" name c.label got
                 want))
        r.cells;
      let fp = Refine.table_fingerprint in
      if
        fp (Refine.table `Value policy s.q space)
        <> fp (Maximal.table `Value policy s.q space)
      then
        Outcome.problem bad (name ^ ": refined maximal table differs from brute");
      let want = replies_digest (fst (Analyze.maximal brute policy s.q)) in
      let got = replies_digest r.maximal in
      let want = if corrupt && idx = 0 then "corrupted:" ^ want else want in
      if got <> want then
        Outcome.problem bad (name ^ ": maximal mechanism differs from brute"))
    reports

(* ---------- the run ---------- *)

type round = {
  setup_ns : int;
  reports : int;
  measured_ns : int;
  traced : bool;
  refine_runs : int;
  refine_saved : int;
  cache_hits : int;
  cache_misses : int;
  gc : Stats.gc;  (* over the batch *)
}

let run ~seed ~seconds ~trace ~tiny ~corrupt ~spans_out =
  let batch, min_rounds = if tiny then (3, 2) else (60, 3) in
  let sp = Spans.create ~cap:(if trace then 100_000 else 0) in
  let bad = Outcome.problems () in
  let failed = ref 0 and attempted = ref 0 and checked = ref 0 in
  let plain_lat = Samples.create () and traced_lat = Samples.create () in
  let rounds = ref [] and check_ns = ref 0 in
  let start = Stats.now_ns () in
  let r = ref 0 in
  while
    !r < min_rounds
    || (not tiny)
       && Stats.s_of_ns (Stats.now_ns () - start - !check_ns) < seconds
  do
    let traced = trace && !r mod 2 = 1 in
    let lat = if traced then traced_lat else plain_lat in
    Gc.full_major ();
    let t0 = Stats.now_ns () in
    let subjects, cache, cfg = setup ~seed ~round:!r ~batch in
    let t1 = Stats.now_ns () in
    Spans.set_on sp traced;
    let gc0 = Stats.gc_mark () in
    let runs = ref 0 and saved = ref 0 and reports = ref [] in
    Array.iteri
      (fun i s ->
        incr attempted;
        let depth = Spans.depth sp in
        let a = Stats.now_ns () in
        match analyze_one sp cfg i s with
        | rep ->
            Samples.add lat (Stats.us_of_ns (Stats.now_ns () - a));
            (match rep.refine with
            | Some st ->
                runs := !runs + st.Refine.runs;
                saved := !saved + st.Refine.saved
            | None -> ());
            reports := rep :: !reports
        | exception e ->
            Spans.unwind sp depth;
            incr failed;
            Printf.eprintf "%s raised %s\n%!" s.prog.Ast.name (Printexc.to_string e))
      subjects;
    let gc = Stats.gc_since gc0 in
    Spans.set_on sp false;
    let t2 = Stats.now_ns () in
    rounds :=
      {
        setup_ns = t1 - t0;
        reports = Array.length subjects;
        measured_ns = t2 - t1;
        traced;
        refine_runs = !runs;
        refine_saved = !saved;
        cache_hits = Cache.hits cache;
        cache_misses = Cache.misses cache;
        gc;
      }
      :: !rounds;
    (* The oracle check runs between rounds, outside every timed region,
       so no round's reports outlive it. *)
    let c0 = Stats.now_ns () in
    check bad ~corrupt:(corrupt && !r = 0) (List.rev !reports);
    checked := !checked + List.length !reports;
    check_ns := !check_ns + (Stats.now_ns () - c0);
    incr r
  done;
  let rounds = List.rev !rounds in
  let check_s = Stats.s_of_ns !check_ns in
  let plain = List.filter (fun r -> not r.traced) rounds
  and traced = List.filter (fun r -> r.traced) rounds in
  let first = List.hd rounds in
  let sorted = Samples.sorted plain_lat in
  let p50 = Stats.percentile sorted 0.50 and p90 = Stats.percentile sorted 0.90 in
  (* Reports over all measured time: moves in proportion to the share of
     the run the machine spent slow. *)
  let rps_of rs =
    float_of_int (List.fold_left (fun a r -> a + r.reports) 0 rs)
    /. Stats.s_of_ns (List.fold_left (fun a r -> a + r.measured_ns) 0 rs)
  in
  let rps = rps_of plain in
  let setup_s = Stats.median (List.map (fun r -> Stats.s_of_ns r.setup_ns) rounds) in
  let rss = Stats.peak_rss_mb () in
  let figures =
    Outcome.
      [
        metric "reports_per_s" "1/s" rps;
        metric "report_p50_ms" "ms" (p50 /. 1e3);
        metric "report_p90_ms" "ms" (p90 /. 1e3);
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" rss;
        metric "oracle_check_s" "s" check_s;
      ]
  in
  let samples =
    [
      ("rounds", List.length rounds);
      ("setup", List.length rounds);
      ("reports", Array.length sorted);
      ("reports_beyond_p90", Stats.beyond sorted 0.90);
      ("checked", !checked);
    ]
  in
  let metrics, figures, samples =
    if not trace then
      ( Outcome.
          [
            metric "throughput_per_s" "1/s" rps;
            metric "latency_p50_us" "us" p50;
            metric "latency_tail_us" "us" p90;
            metric "setup_s" "s" setup_s;
            metric "peak_rss_mb" "MB" rss;
          ],
        figures,
        samples )
    else begin
      let n = float_of_int (max 1 (Samples.length traced_lat)) in
      let per_report_ms nm = Stats.ms_of_ns (Spans.total_ns sp nm) /. n in
      let self layer =
        Outcome.metric
          ("self." ^ layer ^ "_us_per_op")
          "us"
          (Stats.us_of_ns (Spans.self_ns sp layer) /. n)
      in
      let runs = float_of_int first.refine_runs
      and saved = float_of_int first.refine_saved in
      let rps_traced = rps_of traced in
      Spans.write sp spans_out;
      ( Outcome.
          [
            metric "analyze.soundness_ms" "ms" (per_report_ms s_soundness);
            metric "analyze.ratio_ms" "ms" (per_report_ms s_ratio);
            metric "analyze.maximal_ms" "ms" (per_report_ms s_maximal);
            metric "probe.leakage_ms" "ms" (per_report_ms s_leakage);
            metric "staticflow.certify_ms" "ms" (per_report_ms s_certify);
            metric "refine.runs" "count" runs;
            metric "refine.saved" "count" saved;
            metric "refine.saved_ratio" "ratio"
              (if runs +. saved = 0. then 0. else saved /. (runs +. saved));
            metric "engine.cache_hits" "count" (float_of_int first.cache_hits);
            metric "engine.cache_misses" "count" (float_of_int first.cache_misses);
            metric "gc.minor_words_per_op" "words"
              (first.gc.Stats.minor_words /. float_of_int batch);
            metric "gc.major_collections" "count"
              (float_of_int first.gc.Stats.major_collections);
            metric "trace.overhead_pct" "%" (100. *. (rps -. rps_traced) /. rps);
            metric "trace.spans" "count" (float_of_int (Spans.recorded sp));
          ]
        @ List.map self [ "bench"; "analyze"; "probe"; "staticflow" ],
        figures @ [ Outcome.metric "traced_reports_per_s" "1/s" rps_traced ],
        samples @ [ ("traced_reports", Samples.length traced_lat) ] )
    end
  in
  {
    Outcome.attempted = !attempted;
    failed = !failed;
    correct = bad.Outcome.count = 0;
    problems = bad.Outcome.first;
    metrics;
    figures;
    samples;
  }
