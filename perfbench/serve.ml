(* The serve-hot and serve-journaled workloads: one closed-loop client
   pumping Wire frames through an in-process Secpol_server.Engine.

   A run is a sequence of rounds. A round sets up anew (inputs,
   expectation table, engine, session, warm-up), then alternates two
   phases on the same session, a few chunks each:

   - unloaded: window 1, each request timed from encode to decoded reply;
   - loaded: window 64 outstanding on the one connection.

   Every round is the same work. The run reports replies over all loaded
   time, the unloaded p50, p90 and p99 averaged over the chunks, the
   median set-up, and exact GC counts from the first round. Each round has a
   fresh memory store, so serve-journaled's journals stay bounded by the
   round size. *)

module Engine = Secpol_server.Engine
module Wire = Secpol_server.Wire
module Store = Secpol_server.Store
module Session = Secpol_server.Session
module Loadgen = Secpol_server.Loadgen
module Top = Secpol_server.Top
module Metrics = Secpol_trace.Metrics
module Mechanism = Secpol_core.Mechanism
module Notice = Secpol_core.Notice
module Policy = Secpol_core.Policy
module Space = Secpol_core.Space
module Value = Secpol_core.Value
module Graph = Secpol_flowgraph.Graph
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Runner = Secpol_journal.Runner
module Media = Secpol_journal.Media
module Codec = Secpol_journal.Codec

type kind = Hot | Journaled

(* Loadgen.session_spec's serving settings: ex7 under allow(1). *)
let program = "ex7"
let policy = Policy.allow [ 1 ]
let window = 64

let engine_config =
  let d = Engine.default_config in
  {
    d with
    Engine.capacity = max d.Engine.capacity (2 * window);
    exec_budget = max d.Engine.exec_budget window;
  }

(* A request the engine leaves unanswered for this many steps is hung. *)
let max_idle_steps = 1000

let s_request = Spans.name "bench.request"
let s_batch = Spans.name "bench.batch"
let s_replay = Spans.name "bench.replay"
let s_encode = Spans.name "wire.encode"
let s_feed = Spans.name "wire.feed"
let s_output = Spans.name "wire.output"
let s_stream = Spans.name "wire.stream"
let s_decode = Spans.name "wire.decode"
let s_step = Spans.name "server.step"
let s_key = Spans.name "cache.key"
let s_monitor = Spans.name "taint.monitor"
let s_journal = Spans.name "journal.run"

(* ---------- the reply check ---------- *)

type tally = {
  mutable attempted : int;
  mutable shed : int;
  mutable hung : int;
  mutable fail_open : int;
  mutable wrong : int;
  bad : Outcome.problems;
}

let tally () =
  {
    attempted = 0;
    shed = 0;
    hung = 0;
    fail_open = 0;
    wrong = 0;
    bad = Outcome.problems ();
  }

let show = Outcome.show_reply

let same_reply (a : Mechanism.reply) (b : Mechanism.reply) =
  a.Mechanism.steps = b.Mechanism.steps
  &&
  match (a.Mechanism.response, b.Mechanism.response) with
  | Mechanism.Granted v, Mechanism.Granted w -> Value.equal v w
  | Mechanism.Denied m, Mechanism.Denied n -> String.equal m n
  | Mechanism.Hung, Mechanism.Hung -> true
  | Mechanism.Failed m, Mechanism.Failed n -> String.equal m n
  | _ -> false

(* Every reply must be the clean monitor's own reply for its input, as in
   Loadgen.record but exact: a shed answer is a failed operation; a grant
   the monitor would not issue, or a reply outside E ∪ F, is fail-open; any
   other difference is a wrong reply. Both of the last fail the run. *)
let check t ~id expected (reply : Mechanism.reply) =
  if not (same_reply expected reply) then
    match reply.Mechanism.response with
    | Mechanism.Denied n when n = Wire.overload_notice -> t.shed <- t.shed + 1
    | Mechanism.Denied n when Notice.in_f n ->
        t.wrong <- t.wrong + 1;
        Outcome.problem t.bad
          (Printf.sprintf "request %d: wrong reply %s, monitor says %s" id
             (show reply) (show expected))
    | _ ->
        t.fail_open <- t.fail_open + 1;
        Outcome.problem t.bad
          (Printf.sprintf "request %d: FAIL-OPEN %s, monitor says %s" id
             (show reply) (show expected))

(* ---------- the client side of one connection ---------- *)

type client = {
  engine : Engine.t;
  store : Store.t;
  conn : int;
  stream : Wire.Stream.t;
  mutable next_id : int;
  point_of : int array;  (* request id -> index into [points] *)
}

type setup = {
  graph : Graph.t;
  spec : Wire.open_session;
  points : Value.t array array;  (* the corpus space, enumeration order *)
  expected : Mechanism.reply array;  (* clean monitor, per point *)
  draws : int array;  (* seeded point index of each measured request *)
  client : client;
}

let send sp t s pi =
  let c = s.client in
  let id = c.next_id in
  c.next_id <- id + 1;
  c.point_of.(id) <- pi;
  t.attempted <- t.attempted + 1;
  Spans.enter sp s_encode id;
  let bytes =
    Wire.encode_request
      (Wire.Enforce
         {
           Wire.session = s.spec.Wire.session;
           request_id = id;
           program;
           inputs = s.points.(pi);
           deadline_us = -1;
         })
  in
  Spans.leave sp;
  Spans.enter sp s_feed id;
  Engine.feed c.engine ~conn:c.conn ~now:(Stats.now_s ()) bytes;
  Spans.leave sp

let step sp c =
  Spans.enter sp s_step (-1);
  Engine.step c.engine ~now:(Stats.now_s ());
  Spans.leave sp

(* Drain the connection and check every reply; the number that arrived. *)
let receive sp t s =
  let c = s.client in
  Spans.enter sp s_output (-1);
  let bytes = Engine.output c.engine ~conn:c.conn in
  Spans.leave sp;
  Spans.enter sp s_stream (-1);
  Wire.Stream.feed c.stream ~now:0. bytes;
  Spans.leave sp;
  let got = ref 0 in
  let continue = ref true in
  while !continue do
    Spans.enter sp s_decode (-1);
    let frame =
      match Wire.Stream.next c.stream with
      | `Frame p -> (
          match Wire.decode_response p with
          | Ok (Wire.Reply { request_id; reply; _ }) ->
              Spans.set_req sp request_id;
              `Reply (request_id, reply)
          | Ok r -> `Bad ("unexpected " ^ Wire.response_name r)
          | Error e -> `Bad (Codec.error_message e))
      | `Await -> `Done
      | `Corrupt e -> `Corrupt (Codec.error_message e)
    in
    Spans.leave sp;
    match frame with
    | `Reply (id, reply) when id >= 0 && id < c.next_id ->
        check t ~id s.expected.(c.point_of.(id)) reply;
        incr got
    | `Reply (id, _) ->
        t.wrong <- t.wrong + 1;
        Outcome.problem t.bad (Printf.sprintf "reply to unknown request %d" id)
    | `Bad m ->
        t.wrong <- t.wrong + 1;
        Outcome.problem t.bad m
    | `Corrupt m ->
        t.wrong <- t.wrong + 1;
        Outcome.problem t.bad ("corrupt reply stream: " ^ m);
        continue := false
    | `Done -> continue := false
  done;
  !got

(* Step until [want] replies arrived; the rest are hung. *)
let await sp t s ~want =
  let got = ref 0 and idle = ref 0 in
  while !got < want && !idle < max_idle_steps do
    step sp s.client;
    let n = receive sp t s in
    if n = 0 then incr idle
    else begin
      idle := 0;
      got := !got + n
    end
  done;
  if !got < want then t.hung <- t.hung + (want - !got)

let open_session c spec =
  Engine.feed c.engine ~conn:c.conn ~now:(Stats.now_s ())
    (Wire.encode_request (Wire.Open_session spec));
  Engine.step c.engine ~now:(Stats.now_s ());
  Wire.Stream.feed c.stream ~now:0. (Engine.output c.engine ~conn:c.conn);
  match Wire.Stream.next c.stream with
  | `Frame p -> (
      match Wire.decode_response p with
      | Ok (Wire.Session_opened _) -> ()
      | Ok r -> failwith ("session not opened: " ^ Wire.response_name r)
      | Error e -> failwith (Codec.error_message e))
  | `Await | `Corrupt _ -> failwith "no session acknowledgement"

(* A deliberately wrong expectation, for the benchmark's own smoke test:
   the check must notice it. *)
let corrupted (r : Mechanism.reply) =
  match r.Mechanism.response with
  | Mechanism.Granted _ -> { r with Mechanism.response = Mechanism.Denied Notice.prefix }
  | _ -> { r with Mechanism.response = Mechanism.Granted (Value.int 424242) }

(* Everything before the first timed operation: inputs, the clean-monitor
   expectation table, engine, session, and one warm-up request per point
   (the session's one-off ikey soundness proof and, on serve-hot, the
   verdict cache fill). *)
let setup ~kind ~seed ~requests ~corrupt t =
  let entry = Paper.find program in
  let graph = Paper.graph entry in
  let spec = Loadgen.session_spec ~journaled:(kind = Journaled) ~policy () in
  let clean =
    Dynamic.mechanism
      (Dynamic.config ~fuel:spec.Wire.fuel ~mode:spec.Wire.mode policy)
      graph
  in
  let points = Array.of_seq (Space.enumerate entry.Paper.space) in
  let expected = Array.map (Mechanism.respond clean) points in
  if corrupt then expected.(0) <- corrupted expected.(0);
  let rng = Random.State.make [| seed |] in
  let draws =
    Array.init requests (fun _ -> Random.State.int rng (Array.length points))
  in
  let store = Store.memory () in
  let engine = Engine.create ~config:engine_config ~store ~now:(Stats.now_s ()) () in
  let client =
    {
      engine;
      store;
      conn = Engine.open_conn engine ~now:(Stats.now_s ());
      stream = Wire.Stream.create ();
      next_id = 0;
      point_of = Array.make (requests + Array.length points) 0;
    }
  in
  open_session client spec;
  let s = { graph; spec; points; expected; draws; client } in
  let quiet = Spans.create ~cap:0 in
  Array.iteri
    (fun pi _ ->
      send quiet t s pi;
      await quiet t s ~want:1)
    points;
  s

(* ---------- one round ---------- *)

(* A round's measured work: [chunks] times an unloaded chunk of [c1]
   requests followed by a loaded chunk of [c2], so both phases sample the
   same stretch of machine time. *)
type size = { chunks : int; c1 : int; c2 : int }

let full = { chunks = 4; c1 = 1_000; c2 = 2_000 }
let tiny_size = { chunks = 2; c1 = 100; c2 = 150 }
let requests z = z.chunks * (z.c1 + z.c2)

type round = {
  setup_ns : int;
  p50s : float list;  (* per unloaded chunk, us *)
  p90s : float list;
  p99s : float list;
  unloaded : int;
  loaded_ns : int;
  loaded_replies : int;
  loaded_steps : int;
  queue_wait_p50_us : int;  (* the engine's own server/latency-us *)
  cache_hits : int;
  cache_misses : int;
  journal_bytes : int;
  journal_media : int;
  gc : Stats.gc;  (* over the measured chunks *)
}

let latency_p50 ~older ~newer =
  match List.assoc_opt "server/latency-us" (Metrics.diff ~older newer) with
  | Some (Metrics.Histogram h) -> Top.percentile h 0.5
  | _ -> 0

let journal_footprint s =
  let c = s.client in
  let keys =
    Store.keys c.store ~prefix:(Session.media_prefix ~session:s.spec.Wire.session)
  in
  List.fold_left
    (fun (bytes, n) key ->
      let m = Store.media c.store key in
      match Media.load m with
      | Some (snap, journal) ->
          (bytes + String.length snap + String.length journal, n + 1)
      | None -> (bytes, n + 1))
    (0, 0) keys

(* Window 1: each request timed from encode to decoded reply. *)
let unloaded sp t s ~first rtts =
  let c = s.client in
  Array.iteri
    (fun k _ ->
      Spans.enter sp s_request c.next_id;
      let a = Stats.now_ns () in
      send sp t s s.draws.(first + k);
      await sp t s ~want:1;
      let b = Stats.now_ns () in
      Spans.leave sp;
      rtts.(k) <- Stats.us_of_ns (b - a))
    rtts

(* Window 64 on the one connection: (replies, steps, ns). *)
let loaded sp t s ~first ~n =
  let sent = ref 0 and answered = ref 0 and steps = ref 0 and idle = ref 0 in
  let a = Stats.now_ns () in
  while !answered < n && !idle < max_idle_steps do
    Spans.enter sp s_batch (-1);
    while !sent < n && !sent - !answered < window do
      send sp t s s.draws.(first + !sent);
      incr sent
    done;
    step sp s.client;
    incr steps;
    let got = receive sp t s in
    Spans.leave sp;
    if got = 0 then incr idle
    else begin
      idle := 0;
      answered := !answered + got
    end
  done;
  let ns = Stats.now_ns () - a in
  if !answered < n then t.hung <- t.hung + (!sent - !answered);
  (!answered, !steps, ns)

let round sp t ~kind ~seed ~size ~corrupt ~traced =
  (* Every round starts from a collected heap: the previous round's store
     is garbage, and neither its size nor its collection lands here. *)
  Gc.full_major ();
  let t0 = Stats.now_ns () in
  let s = setup ~kind ~seed ~requests:(requests size) ~corrupt t in
  let setup_ns = Stats.now_ns () - t0 in
  let ms = Engine.metrics s.client.engine in
  let older = Metrics.snapshot ms in
  let rtts = Array.make size.c1 0. in
  let p50s = ref [] and p90s = ref [] and p99s = ref [] in
  let replies = ref 0 and steps = ref 0 and loaded_ns = ref 0 in
  Spans.set_on sp traced;
  let gc0 = Stats.gc_mark () in
  for ch = 0 to size.chunks - 1 do
    let first = ch * (size.c1 + size.c2) in
    unloaded sp t s ~first rtts;
    Array.sort Float.compare rtts;
    p50s := Stats.percentile rtts 0.50 :: !p50s;
    p90s := Stats.percentile rtts 0.90 :: !p90s;
    p99s := Stats.percentile rtts 0.99 :: !p99s;
    let r, st, ns = loaded sp t s ~first:(first + size.c1) ~n:size.c2 in
    replies := !replies + r;
    steps := !steps + st;
    loaded_ns := !loaded_ns + ns
  done;
  let gc = Stats.gc_since gc0 in
  Spans.set_on sp false;
  let journal_bytes, journal_media = journal_footprint s in
  ( s,
    {
      setup_ns;
      p50s = !p50s;
      p90s = !p90s;
      p99s = !p99s;
      unloaded = size.chunks * size.c1;
      loaded_ns = !loaded_ns;
      loaded_replies = !replies;
      loaded_steps = !steps;
      queue_wait_p50_us = latency_p50 ~older ~newer:(Metrics.snapshot ms);
      cache_hits = Metrics.counter_value ms "server/session-cache-hits";
      cache_misses = Metrics.counter_value ms "server/session-cache-misses";
      journal_bytes;
      journal_media;
      gc;
    } )

(* ---------- replay stages (traced run only) ---------- *)

(* The stages a served request passes through, each called directly on
   the round's own inputs and timed per request: the session cache key
   (graph digest plus policy image), the session monitor, and a journaled
   run on fresh memory media. *)
let replay sp s ~n =
  let dcfg =
    Dynamic.config ~fuel:s.spec.Wire.fuel ~mode:s.spec.Wire.mode policy
  in
  let monitor = Dynamic.mechanism dcfg s.graph in
  Spans.set_on sp true;
  for k = 0 to n - 1 do
    let a = s.points.(s.draws.(k)) in
    Spans.enter sp s_replay k;
    Spans.enter sp s_key k;
    ignore (Sys.opaque_identity (Runner.graph_hash s.graph, Policy.image policy a));
    Spans.leave sp;
    Spans.enter sp s_monitor k;
    ignore (Sys.opaque_identity (Mechanism.respond monitor a));
    Spans.leave sp;
    Spans.enter sp s_journal k;
    ignore
      (Sys.opaque_identity
         (Runner.run ~snapshot_every:engine_config.Engine.snapshot_every
            ~media:(Media.memory ()) ~program_ref:program dcfg s.graph a));
    Spans.leave sp;
    Spans.leave sp
  done;
  Spans.set_on sp false

(* ---------- the run ---------- *)

let concat f rounds = List.concat_map f rounds
let sum f rounds = List.fold_left (fun a r -> a + f r) 0 rounds

let run ~kind ~seed ~seconds ~trace ~tiny ~corrupt ~spans_out =
  let size, min_rounds = if tiny then (tiny_size, 2) else (full, 4) in
  let sp = Spans.create ~cap:(if trace then 100_000 else 0) in
  let t = tally () in
  let rounds = ref [] and last_setup = ref None in
  let start = Stats.now_ns () in
  let r = ref 0 in
  while
    !r < min_rounds
    || ((not tiny) && Stats.s_of_ns (Stats.now_ns () - start) < seconds)
  do
    (* The traced run alternates untraced and traced rounds, so the two
       see the same heap and machine state and their difference is the
       tracing overhead. *)
    let traced = trace && !r mod 2 = 1 in
    let s, rd = round sp t ~kind ~seed ~size ~corrupt ~traced in
    last_setup := Some s;
    rounds := (traced, rd) :: !rounds;
    incr r
  done;
  let rounds = List.rev !rounds in
  let plain = List.filter_map (fun (tr, rd) -> if tr then None else Some rd) rounds
  and traced = List.filter_map (fun (tr, rd) -> if tr then Some rd else None) rounds in
  let first = snd (List.hd rounds) in
  (* Throughput over all loaded time, latency percentiles averaged over
     the chunks: both move in proportion to the share of the run the
     machine spent slow, where a median would jump between the two. The
     machine-read tail is p90: a minor collection lands in roughly one
     request in 35 (journaled) to 60 (hot), so p99 sits inside those
     requests and swings with the collector's pause. It is printed as
     rtt_p99_us beside it. *)
  let rps_of rs =
    float_of_int (sum (fun r -> r.loaded_replies) rs)
    /. Stats.s_of_ns (sum (fun r -> r.loaded_ns) rs)
  in
  let p50_of rs = Stats.mean (concat (fun r -> r.p50s) rs) in
  let rps = rps_of plain and p50 = p50_of plain in
  let p90 = Stats.mean (concat (fun r -> r.p90s) plain)
  and p99 = Stats.mean (concat (fun r -> r.p99s) plain) in
  let setup_s = Stats.median (List.map (fun (_, r) -> Stats.s_of_ns r.setup_ns) rounds) in
  let rss = Stats.peak_rss_mb () in
  let figures =
    Outcome.
      [
        metric "rps" "1/s" rps;
        metric "rtt_p50_us" "us" p50;
        metric "rtt_p90_us" "us" p90;
        metric "rtt_p99_us" "us" p99;
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" rss;
      ]
  in
  let samples =
    [
      ("rounds", List.length rounds);
      ("setup", List.length rounds);
      ("unloaded", sum (fun r -> r.unloaded) plain);
      ("unloaded_chunk", size.c1);
      ("unloaded_chunk_beyond_p90", size.c1 - int_of_float (ceil (0.90 *. float_of_int size.c1)));
      ("unloaded_chunk_beyond_p99", size.c1 - int_of_float (ceil (0.99 *. float_of_int size.c1)));
      ("loaded", sum (fun r -> r.loaded_replies) plain);
      ("loaded_chunk", size.c2);
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
      let replies = sum (fun r -> r.unloaded + r.loaded_replies) traced in
      let per_reply_us ns = Stats.us_of_ns ns /. float_of_int (max 1 replies) in
      let mean_us nm =
        Stats.us_of_ns (Spans.total_ns sp nm) /. float_of_int (max 1 (Spans.count sp nm))
      in
      (* Self times cover the served rounds only: read them before the
         replay adds its own spans. *)
      let self layer =
        Outcome.metric
          ("self." ^ layer ^ "_us_per_op")
          "us"
          (per_reply_us (Spans.self_ns sp layer))
      in
      let selfs = List.map self [ "bench"; "wire"; "server" ] in
      let step_us = per_reply_us (Spans.total_ns sp s_step) in
      let wire_us = per_reply_us (Spans.self_ns sp "wire") in
      let s = Option.get !last_setup in
      let n_replay = min (Array.length s.draws) 20_000 in
      replay sp s ~n:n_replay;
      let hits = sum (fun r -> r.cache_hits) traced
      and misses = sum (fun r -> r.cache_misses) traced in
      let hit_ratio =
        if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
      in
      let key_us = mean_us s_key and monitor_us = mean_us s_monitor
      and journal_us = mean_us s_journal in
      (* The stages a request of this workload actually takes. *)
      let stage_sum_us =
        match kind with
        | Hot -> key_us +. ((1. -. hit_ratio) *. monitor_us)
        | Journaled -> journal_us
      in
      let jbytes = sum (fun r -> r.journal_bytes) traced
      and jmedia = sum (fun r -> r.journal_media) traced in
      let rps_traced = rps_of traced and p50_traced = p50_of traced in
      Spans.write sp spans_out;
      ( Outcome.
          [
            metric "server.step_us_per_req" "us" step_us;
            metric "server.reqs_per_step" "count"
              (float_of_int (sum (fun r -> r.loaded_replies) traced)
              /. float_of_int (max 1 (sum (fun r -> r.loaded_steps) traced)));
            metric "server.queue_wait_p50_us" "us"
              (Stats.median (List.map (fun r -> float_of_int r.queue_wait_p50_us) traced));
            metric "wire.client_us_per_req" "us" wire_us;
            metric "cache.hit_ratio" "ratio" hit_ratio;
            metric "cache.key_us" "us" key_us;
            metric "taint.monitor_us" "us" monitor_us;
            metric "journal.run_us" "us" journal_us;
            metric "journal.bytes_per_req" "B"
              (if jmedia = 0 then 0. else float_of_int jbytes /. float_of_int jmedia);
            metric "stage_sum_us" "us" stage_sum_us;
            metric "gc.minor_words_per_op" "words"
              (first.gc.Stats.minor_words /. float_of_int (requests size));
            metric "gc.major_collections" "count"
              (float_of_int first.gc.Stats.major_collections);
            metric "trace.overhead_pct" "%" (100. *. (rps -. rps_traced) /. rps);
            metric "trace.spans" "count" (float_of_int (Spans.recorded sp));
          ]
          @ selfs,
        figures
        @ Outcome.
            [
              metric "traced_rps" "1/s" rps_traced;
              metric "traced_rtt_p50_us" "us" p50_traced;
              metric "rtt_p50_overhead_pct" "%" (100. *. (p50_traced -. p50) /. p50);
            ],
        samples
        @ [
            ("traced_unloaded", sum (fun r -> r.unloaded) traced);
            ("traced_loaded", sum (fun r -> r.loaded_replies) traced);
            ("replay", n_replay);
          ] )
    end
  in
  {
    Outcome.attempted = t.attempted;
    failed = t.shed + t.hung;
    correct = t.fail_open = 0 && t.wrong = 0;
    problems = t.bad.Outcome.first;
    metrics;
    figures;
    samples;
  }
