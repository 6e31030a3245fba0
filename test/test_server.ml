(* The enforcement service: the wire protocol is a total codec over a
   CRC-framed stream; the admission queue is bounded, deterministic and
   never silent; the engine answers every request with the clean
   monitor's verdict or a notice in F — under overload, deadlines,
   drain, circuit-breaking, kills and restarts; and the real daemon
   (forked, on a real socket) serves, resumes and drains cleanly. *)

open Util
module Wire = Secpol_server.Wire
module Engine = Secpol_server.Engine
module Store = Secpol_server.Store
module Admission = Secpol_server.Admission
module Daemon = Secpol_server.Daemon
module Client = Secpol_server.Client
module Loadgen = Secpol_server.Loadgen
module Chaos = Secpol_server.Chaos
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Guard = Secpol_fault.Guard
module FReport = Secpol_fault.Report
module Hook = Secpol_flowgraph.Hook
module Frame = Secpol_journal.Frame
module Metrics = Secpol_trace.Metrics
module Expo = Secpol_trace.Expo
module Http = Secpol_server.Http
module Top = Secpol_server.Top
module Json = Secpol_staticflow.Lint.Json

let overload = Wire.overload_notice
let recovery = Guard.recovery_notice

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

(* --- wire ----------------------------------------------------------------- *)

let spec_gen =
  QCheck.Gen.(
    let* session = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* arity = int_range 0 3 in
    let* mask = int_range 0 15 in
    let* fuel = int_range 1 100_000 in
    let* retries = int_range 0 5 in
    let* journaled = bool in
    let* mode = oneofl Dynamic.[ High_water; Surveillance; Scoped; Timed ] in
    return
      {
        Wire.session;
        allowed =
          Iset.of_list
            (List.filter
               (fun i -> (mask lsr i) land 1 = 1)
               (List.init arity Fun.id));
        mode;
        fuel;
        guard_retries = retries;
        journaled;
      })

let request_gen =
  QCheck.Gen.(
    let* tag = int_range 0 5 in
    match tag with
    | 0 ->
        let* c = string_size (int_range 0 12) in
        return (Wire.Hello { client = c })
    | 1 ->
        let* spec = spec_gen in
        return (Wire.Open_session spec)
    | 2 ->
        let* session = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
        let* request_id = int_range 0 10_000 in
        let* program = oneofl [ "ex7"; "ex8"; "forgetting" ] in
        let* n = int_range 0 3 in
        let* xs = list_size (return n) (int_range (-9) 9) in
        let* deadline_us = oneofl [ -1; 0; 1; 1_000; 5_000_000 ] in
        return
          (Wire.Enforce
             {
               Wire.session;
               request_id;
               program;
               inputs = Array.of_list (List.map Value.int xs);
               deadline_us;
             })
    | 3 ->
        let* session = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
        let* request_id = int_range 0 10_000 in
        return (Wire.Resume { session; request_id })
    | 4 -> return Wire.Stats
    | _ -> return Wire.Drain)

(* One frame, fed to the stream in random-sized chunks, decodes back to
   the request that produced it. *)
let prop_wire_round_trip =
  qtest ~count:500 "request-round-trip"
    (QCheck.make QCheck.Gen.(pair request_gen (int_range 1 64)))
    (fun (req, chunk) ->
      let bytes = Wire.encode_request req in
      let st = Wire.Stream.create () in
      let n = String.length bytes in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        Wire.Stream.feed st ~now:0. (String.sub bytes !i len);
        i := !i + len
      done;
      match Wire.Stream.next st with
      | `Frame payload -> (
          match Wire.decode_request payload with
          | Ok req' ->
              req' = req
              || QCheck.Test.fail_reportf "decoded %s from %s"
                   (Wire.request_name req') (Wire.request_name req)
          | Error e ->
              QCheck.Test.fail_reportf "decode failed: %s"
                (Wire.Codec.error_message e))
      | `Await -> QCheck.Test.fail_report "frame incomplete after full feed"
      | `Corrupt e ->
          QCheck.Test.fail_reportf "corrupt: %s" (Wire.Codec.error_message e))

let test_response_round_trip () =
  let reply response = { Mechanism.response; steps = 17 } in
  List.iter
    (fun r ->
      let bytes = Wire.encode_response r in
      let st = Wire.Stream.create () in
      Wire.Stream.feed st ~now:0. bytes;
      match Wire.Stream.next st with
      | `Frame payload ->
          Alcotest.(check bool)
            (Wire.response_name r ^ " round-trips")
            true
            (Wire.decode_response payload = Ok r)
      | _ -> Alcotest.failf "%s: no frame" (Wire.response_name r))
    [
      Wire.Welcome { server = "s" };
      Wire.Session_opened { session = "load" };
      Wire.Reply
        {
          session = "load";
          request_id = 3;
          reply = reply (Mechanism.Granted (Value.int 7));
        };
      Wire.Reply
        {
          session = "load";
          request_id = 4;
          reply = reply (Mechanism.Denied overload);
        };
      Wire.Stats_reply { body = "{}" };
      Wire.Draining { outstanding = 2 };
      Wire.Refused { code = "proto"; detail = "bad frame" };
    ]

(* Damaged frames never decode into a message: bad magic and bad CRC are
   [`Corrupt]; truncation stays [`Await] (the stream keeps waiting — the
   slowloris deadline, not the codec, kills the connection); a foreign
   wire version re-framed with a valid CRC decodes to a typed error. *)
let test_wire_damage_rejected () =
  let bytes = Wire.encode_request (Wire.Hello { client = "damage" }) in
  let feed s =
    let st = Wire.Stream.create () in
    Wire.Stream.feed st ~now:0. s;
    Wire.Stream.next st
  in
  (match feed (flip_byte bytes 0) with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (match feed (flip_byte bytes (String.length bytes - 1)) with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "bad CRC accepted");
  (match feed (String.sub bytes 0 (String.length bytes - 2)) with
  | `Await -> ()
  | _ -> Alcotest.fail "truncated frame not awaited");
  (let payload =
     String.sub bytes Frame.header_size
       (String.length bytes - Frame.header_size)
   in
   let foreign = Frame.frame (flip_byte payload 0) in
   match feed foreign with
   | `Frame p -> (
       match Wire.decode_request p with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "foreign version decoded")
   | _ -> Alcotest.fail "foreign-version frame did not parse as a frame");
  match feed "no frame starts like this" with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage accepted"

(* --- admission ------------------------------------------------------------ *)

(* Conservation, no silence: every offer is answered exactly once —
   shed (at offer time, or displaced later, or refused in drain) or
   popped — the queue never exceeds capacity, and expired offers are
   shed as Expired. An entry may legitimately be admitted first and
   displaced by a later offer; it must then not also be popped. *)
let prop_admission_conserves =
  qtest ~count:300 "admission-conserves-every-request"
    QCheck.(triple (int_range 1 8) (int_range 1 40) (int_range 0 1_000_000))
    (fun (capacity, offers, seed) ->
      (* QCheck's int shrinker can leave the generated range *)
      let capacity = max 1 capacity and offers = max 1 offers in
      let q = Admission.create ~seed ~capacity () in
      (* request_id -> `Admitted (still queued) | `Answered (shed/popped) *)
      let state = Hashtbl.create 16 in
      for id = 0 to offers - 1 do
        let deadline = float_of_int ((seed + (id * 7)) mod 5) -. 1. in
        let decisions =
          Admission.offer q ~now:0.5 ~conn:0 ~session:"s" ~request_id:id
            ~deadline ()
        in
        List.iter
          (function
            | `Admitted (e : unit Admission.entry) ->
                if Hashtbl.mem state e.Admission.request_id then
                  QCheck.Test.fail_reportf "request %d admitted twice"
                    e.Admission.request_id;
                Hashtbl.add state e.Admission.request_id `Admitted
            | `Shed (e, reason) -> (
                (match Hashtbl.find_opt state e.Admission.request_id with
                | None -> Hashtbl.add state e.Admission.request_id `Answered
                | Some `Admitted ->
                    (* displaced from the queue by the newcomer *)
                    Hashtbl.replace state e.Admission.request_id `Answered
                | Some `Answered ->
                    QCheck.Test.fail_reportf "request %d answered twice"
                      e.Admission.request_id);
                if e.Admission.request_id = id && deadline <= 0.5 then
                  match reason with
                  | Admission.Expired -> ()
                  | r ->
                      QCheck.Test.fail_reportf "expired offer shed as %s"
                        (Admission.reason_name r)))
          decisions;
        if Admission.length q > capacity then
          QCheck.Test.fail_reportf "queue over capacity: %d > %d"
            (Admission.length q) capacity;
        if not (Hashtbl.mem state id) then
          QCheck.Test.fail_reportf "offer %d got no decision" id
      done;
      Admission.drain q;
      (match
         Admission.offer q ~now:0.5 ~conn:0 ~session:"s" ~request_id:offers
           ~deadline:99. ()
       with
      | [ `Shed (_, Admission.Draining) ] -> ()
      | _ -> QCheck.Test.fail_report "drained queue did not refuse the offer");
      let continue = ref true in
      while !continue do
        match Admission.pop q ~now:0.6 with
        | `Empty -> continue := false
        | `Run e | `Expired e -> (
            match Hashtbl.find_opt state e.Admission.request_id with
            | Some `Admitted ->
                Hashtbl.replace state e.Admission.request_id `Answered
            | Some `Answered ->
                QCheck.Test.fail_reportf "request %d popped after answering"
                  e.Admission.request_id
            | None ->
                QCheck.Test.fail_reportf "popped unoffered request %d"
                  e.Admission.request_id)
      done;
      (* drain never drops an admitted request: everything is Answered *)
      for id = 0 to offers - 1 do
        match Hashtbl.find_opt state id with
        | Some `Answered -> ()
        | Some `Admitted ->
            QCheck.Test.fail_reportf "request %d admitted but never popped" id
        | None -> QCheck.Test.fail_reportf "request %d vanished" id
      done;
      true)

(* Deterministic shedding: the same seed and offer sequence replays the
   same decision trace bit-for-bit. *)
let prop_admission_deterministic =
  qtest ~count:300 "admission-deterministic-given-seed"
    QCheck.(
      quad (int_range 1 6) (int_range 1 30) (int_range 0 1_000_000)
        (int_range 0 1_000_000))
    (fun (capacity, offers, seed, dseed) ->
      let capacity = max 1 capacity and offers = max 1 offers in
      let trace () =
        let q = Admission.create ~seed ~capacity () in
        let log = Buffer.create 64 in
        for id = 0 to offers - 1 do
          let deadline = float_of_int ((dseed + (id * 13)) mod 7) in
          List.iter
            (function
              | `Admitted (e : unit Admission.entry) ->
                  Buffer.add_string log
                    (Printf.sprintf "A%d;" e.Admission.request_id)
              | `Shed (e, reason) ->
                  Buffer.add_string log
                    (Printf.sprintf "S%d/%s;" e.Admission.request_id
                       (Admission.reason_name reason)))
            (Admission.offer q ~now:1. ~conn:0 ~session:"s" ~request_id:id
               ~deadline ())
        done;
        Buffer.contents log
      in
      trace () = trace ()
      || QCheck.Test.fail_report "same seed, different decisions")

(* --- engine --------------------------------------------------------------- *)

let session_name = "t"

(* Drive an in-process engine through the wire: open a session, send
   requests, pump replies with a virtual clock. *)
type driver = {
  engine : Engine.t;
  conn : int;
  stream : Wire.Stream.t;
  now : float ref;
  replies : (int, Mechanism.reply) Hashtbl.t;
  refusals : (string * string) list ref;
}

let pump d =
  Wire.Stream.feed d.stream ~now:0. (Engine.output d.engine ~conn:d.conn);
  let continue = ref true in
  while !continue do
    match Wire.Stream.next d.stream with
    | `Frame p -> (
        match Wire.decode_response p with
        | Ok (Wire.Reply { request_id; reply; _ }) ->
            Hashtbl.replace d.replies request_id reply
        | Ok (Wire.Refused { code; detail }) ->
            d.refusals := (code, detail) :: !(d.refusals)
        | Ok _ -> ()
        | Error e -> Alcotest.failf "driver: %s" (Wire.Codec.error_message e))
    | `Await | `Corrupt _ -> continue := false
  done

let step d =
  d.now := !(d.now) +. 0.001;
  Engine.step d.engine ~now:!(d.now);
  pump d

let settle ?(rounds = 60) d =
  for _ = 1 to rounds do
    step d
  done

let send d req =
  Engine.feed d.engine ~conn:d.conn ~now:!(d.now) (Wire.encode_request req)

let enforce d ?(deadline_us = -1) ~id entry a =
  send d
    (Wire.Enforce
       {
         Wire.session = session_name;
         request_id = id;
         program = entry.Paper.name;
         inputs = a;
         deadline_us;
       })

let driver ?(config = Engine.default_config) ?(journaled = false)
    ?(guard_retries = Guard.default.Guard.retries) ?store ~policy () =
  let store = match store with Some s -> s | None -> Store.memory () in
  let now = ref 1000. in
  let engine = Engine.create ~config ~store ~now:!now () in
  let conn = Engine.open_conn engine ~now:!now in
  let d =
    {
      engine;
      conn;
      stream = Wire.Stream.create ();
      now;
      replies = Hashtbl.create 16;
      refusals = ref [];
    }
  in
  let allowed =
    match Policy.allowed_indices policy with
    | Some s -> s
    | None -> Alcotest.fail "driver needs an allow policy"
  in
  send d
    (Wire.Open_session
       {
         Wire.session = session_name;
         allowed;
         mode = Dynamic.Surveillance;
         fuel = 4096;
         guard_retries;
         journaled;
       });
  step d;
  d

let clean_reply entry ~policy a =
  let m =
    Dynamic.mechanism
      (Dynamic.config ~fuel:4096 ~mode:Dynamic.Surveillance
         (Policy.allow_set (Option.get (Policy.allowed_indices policy))))
      (Paper.graph entry)
  in
  Mechanism.respond m a

let reply_of d id =
  match Hashtbl.find_opt d.replies id with
  | Some r -> r
  | None -> Alcotest.failf "request %d unanswered" id

let denial_of d id =
  match (reply_of d id).Mechanism.response with
  | Mechanism.Denied n -> n
  | r ->
      Alcotest.failf "request %d: expected a denial, got %s" id
        (FReport.show_response r)

(* Clean parity: through the whole service stack, every verdict is
   bit-identical to the clean monitor's. *)
let test_engine_clean_parity () =
  List.iter
    (fun name ->
      let entry = Paper.find name in
      let policy = Policy.allow [ 0 ] in
      let d = driver ~policy () in
      let inputs =
        Array.of_list (List.of_seq (Space.enumerate entry.Paper.space))
      in
      Array.iteri (fun id a -> enforce d ~id entry a) inputs;
      settle d;
      Array.iteri
        (fun id a ->
          let got = reply_of d id in
          let want = clean_reply entry ~policy a in
          if got <> want then
            Alcotest.failf "%s input %d: %s, clean %s" name id
              (FReport.show_reply got) (FReport.show_reply want))
        inputs)
    [ "ex7"; "forgetting"; "constant-branch" ]

(* A deadline of zero is already expired: always Λ/overload, never served,
   whatever the queue looks like. *)
let test_deadline_zero_always_shed () =
  let entry = Paper.find "ex7" in
  let d = driver ~policy:(Policy.allow [ 0 ]) () in
  for id = 0 to 9 do
    enforce d ~deadline_us:0 ~id entry (ints [ 1; 1 ])
  done;
  settle d;
  for id = 0 to 9 do
    Alcotest.(check string)
      (Printf.sprintf "request %d shed" id)
      overload (denial_of d id)
  done

(* A burst over capacity: every request answered, the clean verdict or
   Λ/overload — and the queue bound means some really were shed. *)
let test_overload_burst_all_answered () =
  let entry = Paper.find "ex7" in
  let policy = Policy.allow [ 0 ] in
  let config = { Engine.default_config with Engine.capacity = 4 } in
  let d = driver ~config ~policy () in
  let a = ints [ 2; 1 ] in
  let want = clean_reply entry ~policy a in
  let n = 16 in
  for id = 0 to n - 1 do
    enforce d ~id entry a
  done;
  settle d;
  let sheds = ref 0 in
  for id = 0 to n - 1 do
    let got = reply_of d id in
    if got = want then ()
    else if got.Mechanism.response = Mechanism.Denied overload then
      Stdlib.incr sheds
    else Alcotest.failf "request %d: %s" id (FReport.show_reply got)
  done;
  if !sheds = 0 then Alcotest.fail "burst over capacity shed nothing"

(* Drain answers the queue and refuses newcomers with Λ/overload; the
   engine reports drained only once the queue is empty. *)
let test_drain_answers_everything () =
  let entry = Paper.find "ex7" in
  let policy = Policy.allow [ 0 ] in
  let config =
    { Engine.default_config with Engine.capacity = 8; exec_budget = 1 }
  in
  let d = driver ~config ~policy () in
  let a = ints [ 3; 1 ] in
  for id = 0 to 3 do
    enforce d ~id entry a
  done;
  d.now := !(d.now) +. 0.001;
  Engine.step d.engine ~now:!(d.now);
  pump d;
  Engine.drain d.engine ~now:!(d.now);
  enforce d ~id:9 entry a;
  settle d;
  Alcotest.(check bool) "drained" true (Engine.drained d.engine);
  let want = clean_reply entry ~policy a in
  for id = 0 to 3 do
    let got = reply_of d id in
    if got <> want && got.Mechanism.response <> Mechanism.Denied overload then
      Alcotest.failf "admitted request %d: %s" id (FReport.show_reply got)
  done;
  Alcotest.(check string) "post-drain request refused" overload (denial_of d 9)

(* Kill and restart on the same store: a journaled run resumes
   bit-identically, an unjournaled one degrades to Λ/recovery — never a
   grant out of thin air, never silence. *)
let test_kill_restart_resume () =
  List.iter
    (fun journaled ->
      let entry = Paper.find "ex7" in
      let policy = Policy.allow [ 0 ] in
      let store = Store.memory () in
      let a = ints [ 2; 1 ] in
      let d = driver ~journaled ~store ~policy () in
      Engine.kill_next d.engine ~at_box:2;
      enforce d ~id:5 entry a;
      (match
         try
           settle d;
           `Survived
         with Engine.Died -> `Died
       with
      | `Died -> ()
      | `Survived -> Alcotest.fail "armed kill never struck");
      (* restart: fresh engine, same store *)
      let d2 = driver ~journaled ~store ~policy () in
      send d2 (Wire.Resume { session = session_name; request_id = 5 });
      settle d2;
      let got = reply_of d2 5 in
      if journaled then begin
        let want = clean_reply entry ~policy a in
        if got <> want then
          Alcotest.failf "journaled resume diverged: %s, clean %s"
            (FReport.show_reply got) (FReport.show_reply want)
      end
      else
        Alcotest.(check string) "unjournaled resume degrades" recovery
          (denial_of d2 5))
    [ true; false ]

(* The per-session circuit breaker: consecutive degraded outcomes trip
   it, tripped means Λ/overload (shed before execution), and the cooldown
   closes it again. *)
let test_breaker_trips_and_recovers () =
  let entry = Paper.find "ex7" in
  let policy = Policy.allow [ 0 ] in
  let config =
    {
      Engine.default_config with
      Engine.breaker_threshold = 2;
      breaker_cooldown = 0.5;
      hook = (fun ~step:_ -> Some (Hook.Crash "injected"));
    }
  in
  let d = driver ~config ~guard_retries:1 ~policy () in
  let a = ints [ 1; 1 ] in
  (* consecutive degraded outcomes trip the breaker... *)
  for id = 0 to 1 do
    enforce d ~id entry a;
    settle ~rounds:5 d
  done;
  Alcotest.(check string) "degraded" Guard.degraded_notice (denial_of d 0);
  Alcotest.(check string) "degraded" Guard.degraded_notice (denial_of d 1);
  (* ... so the next request is shed without running *)
  enforce d ~id:2 entry a;
  settle ~rounds:5 d;
  Alcotest.(check string) "breaker open" overload (denial_of d 2);
  Alcotest.(check bool) "breaker-sheds counted" true
    (Metrics.counter_value (Engine.metrics d.engine) "server/breaker-sheds"
    > 0);
  (* ... under their own label: the queue was never full *)
  Alcotest.(check int) "breaker sheds labelled breaker"
    (Metrics.counter_value (Engine.metrics d.engine) "server/breaker-sheds")
    (Metrics.counter_value (Engine.metrics d.engine) "server/shed-breaker");
  Alcotest.(check int) "no queue-full sheds" 0
    (Metrics.counter_value (Engine.metrics d.engine) "server/shed-queue-full");
  (* the dashboard reads the open breaker off the gauge *)
  Alcotest.(check int) "breaker gauge raised" 1
    (Metrics.gauge_value (Engine.metrics d.engine)
       ("server/session/" ^ session_name ^ "/breaker-open"));
  let frame = Top.render (Metrics.snapshot (Engine.metrics d.engine)) in
  Alcotest.(check bool) "top shows the breaker OPEN" true
    (contains frame "OPEN");
  (* past the cooldown the breaker closes (the gauge follows) and the
     guard runs — and degrades — again, re-tripping it *)
  d.now := !(d.now) +. 1.0;
  settle ~rounds:1 d;
  Alcotest.(check int) "breaker gauge lowered after cooldown" 0
    (Metrics.gauge_value (Engine.metrics d.engine)
       ("server/session/" ^ session_name ^ "/breaker-open"));
  enforce d ~id:3 entry a;
  settle ~rounds:5 d;
  Alcotest.(check string) "breaker closed after cooldown"
    Guard.degraded_notice (denial_of d 3);
  Alcotest.(check int) "degraded outcome re-trips the breaker" 1
    (Metrics.gauge_value (Engine.metrics d.engine)
       ("server/session/" ^ session_name ^ "/breaker-open"))

(* --- health --------------------------------------------------------------- *)

let test_engine_health () =
  let entry = Paper.find "ex7" in
  let policy = Policy.allow [ 0 ] in
  let config =
    { Engine.default_config with Engine.capacity = 8; exec_budget = 1 }
  in
  let d = driver ~config ~policy () in
  for id = 0 to 3 do
    enforce d ~id entry (ints [ 1; 1 ])
  done;
  step d;
  let h = Engine.health d.engine ~now:!(d.now) in
  Alcotest.(check bool) "serving is ok" true h.Engine.ok;
  Alcotest.(check string) "status ok" "ok" h.Engine.status;
  Alcotest.(check int) "one session" 1 h.Engine.sessions;
  (match Json.parse (Engine.health_json h) with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "ok" fields with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail "health json lost the ok bit")
  | Ok _ | Error _ -> Alcotest.fail "health json unparseable");
  (* with the queue still holding work, drain is reported in progress *)
  Engine.drain d.engine ~now:!(d.now);
  let h = Engine.health d.engine ~now:!(d.now) in
  Alcotest.(check bool) "draining is not ok" false h.Engine.ok;
  Alcotest.(check string) "status draining" "draining" h.Engine.status;
  settle d;
  let h = Engine.health d.engine ~now:!(d.now) in
  Alcotest.(check bool) "drained reported" true h.Engine.drained;
  Alcotest.(check string) "status drained" "drained" h.Engine.status

(* --- per-session parity ----------------------------------------------------- *)

(* Every served reply is a fresh run of its own session's clean monitor:
   the engine keeps no verdict across requests. Each case is
   (rounds, batches); a batch of (session, program, inputs) requests is
   sent together and settled before the next. The cases cover repeats of
   the whole ex7 space; one session interleaving four programs of the
   same arity over the same 0..3 vectors (a plan keyed on the session
   alone serves the wrong program) next to a second session under
   another mode and fuel (a plan keyed on the program alone serves the
   wrong config); and [2;9], outside ex7's corpus space but with the
   same allow [0] image as [2;1]. *)
let test_session_parity () =
  let policy = Policy.allow [ 0 ] in
  let d = driver ~policy () in
  let other = "u" and other_mode = Dynamic.Timed and other_fuel = 3 in
  send d
    (Wire.Open_session
       {
         Wire.session = other;
         allowed = Option.get (Policy.allowed_indices policy);
         mode = other_mode;
         fuel = other_fuel;
         guard_retries = Guard.default.Guard.retries;
         journaled = false;
       });
  step d;
  let ex7 = Paper.find "ex7" in
  let programs =
    List.map Paper.find [ "ex7"; "ex8"; "direct-flow"; "forgetting" ]
  in
  let space = List.of_seq (Space.enumerate ex7.Paper.space) in
  let cases =
    [
      (3, List.map (fun a -> [ (session_name, ex7, a) ]) space);
      ( 3,
        List.map
          (fun a ->
            List.concat_map
              (fun entry -> [ (session_name, entry, a); (other, entry, a) ])
              programs)
          space );
      (2, [ [ (session_name, ex7, ints [ 2; 1 ]) ]; [ (session_name, ex7, ints [ 2; 9 ]) ] ]);
    ]
  in
  (* (request id, session, program, inputs), in send order *)
  let sent = ref [] in
  let next = ref 0 in
  let request (session, (entry : Paper.entry), a) =
    let id = !next in
    incr next;
    sent := (id, session, entry, a) :: !sent;
    send d
      (Wire.Enforce
         {
           Wire.session;
           request_id = id;
           program = entry.Paper.name;
           inputs = a;
           deadline_us = -1;
         })
  in
  List.iter
    (fun (rounds, batches) ->
      for _ = 1 to rounds do
        List.iter
          (fun batch ->
            List.iter request batch;
            settle ~rounds:2 d)
          batches
      done)
    cases;
  let clean_other (entry : Paper.entry) a =
    Mechanism.respond
      (Dynamic.mechanism
         (Dynamic.config ~fuel:other_fuel ~mode:other_mode
            (Policy.allow_set (Option.get (Policy.allowed_indices policy))))
         (Paper.graph entry))
      a
  in
  List.iter
    (fun (id, session, (entry : Paper.entry), a) ->
      let got = reply_of d id in
      let want =
        if session = session_name then clean_reply entry ~policy a
        else clean_other entry a
      in
      if got <> want then
        Alcotest.failf "request %d (%s, %s): %s, clean %s" id session
          entry.Paper.name (FReport.show_reply got) (FReport.show_reply want))
    (List.rev !sent);
  List.iter
    (fun (name, _) ->
      if contains name "cache" then
        Alcotest.failf "verdict-cache series %s registered" name)
    (Metrics.stats (Engine.metrics d.engine))

(* Per-session latency histograms: one sample per executed request. *)
let test_session_latency_histogram () =
  let entry = Paper.find "ex7" in
  let policy = Policy.allow [ 0 ] in
  let d = driver ~policy () in
  for id = 0 to 9 do
    enforce d ~id entry (ints [ id mod 4; 1 ])
  done;
  settle d;
  let m = Engine.metrics d.engine in
  let served = Metrics.counter_value m "server/served" in
  Alcotest.(check int) "all served" 10 served;
  match Metrics.find m ("server/session/" ^ session_name ^ "/latency-us") with
  | Some (Metrics.Histogram s) ->
      Alcotest.(check int) "one latency sample per served request" served
        s.Metrics.n
  | _ -> Alcotest.fail "per-session latency histogram missing"

(* --- http ------------------------------------------------------------------ *)

let split_response resp =
  let n = String.length resp in
  let rec find i =
    if i + 3 >= n then Alcotest.fail "response has no header terminator"
    else if String.sub resp i 4 = "\r\n\r\n" then i
    else find (i + 1)
  in
  let i = find 0 in
  (String.sub resp 0 i, String.sub resp (i + 4) (n - i - 4))

let content_length headers =
  let lines = String.split_on_char '\n' headers in
  List.fold_left
    (fun acc line ->
      let line = String.trim line in
      match String.index_opt line ':' with
      | Some i when String.lowercase_ascii (String.sub line 0 i)
                    = "content-length" ->
          int_of_string_opt
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> acc)
    None lines

let test_http_routes () =
  (match Http.request_of_buffer "GET /met" with
  | None -> ()
  | Some _ -> Alcotest.fail "partial request line parsed");
  (match Http.request_of_buffer "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n" with
  | Some { Http.meth = "GET"; target = "/metrics" } -> ()
  | _ -> Alcotest.fail "request line not parsed");
  let entry = Paper.find "ex7" in
  let d = driver ~policy:(Policy.allow [ 0 ]) () in
  enforce d ~id:0 entry (ints [ 1; 1 ]);
  settle ~rounds:5 d;
  let get target = Http.handle d.engine ~now:!(d.now) { Http.meth = "GET"; target } in
  (* /metrics: 200, framed, and the body parses back to the exact registry
     snapshot *)
  let resp = get "/metrics" in
  let headers, body = split_response resp in
  Alcotest.(check bool) "metrics 200" true
    (String.length resp > 12 && String.sub resp 0 15 = "HTTP/1.0 200 OK");
  Alcotest.(check bool) "connection closed" true
    (contains headers "Connection: close");
  (match content_length headers with
  | Some len -> Alcotest.(check int) "content-length" (String.length body) len
  | None -> Alcotest.fail "no Content-Length");
  (match Expo.parse body with
  | Ok snap ->
      Alcotest.(check bool) "scrape equals the registry snapshot" true
        (snap = Metrics.snapshot (Engine.metrics d.engine))
  | Error e -> Alcotest.failf "scrape unparseable: %s" e);
  (* /healthz mirrors Engine.health *)
  let resp = get "/healthz" in
  let _, body = split_response resp in
  Alcotest.(check bool) "healthz 200 while serving" true
    (String.sub resp 0 12 = "HTTP/1.0 200");
  Alcotest.(check string) "healthz body"
    (Engine.health_json (Engine.health d.engine ~now:!(d.now)))
    (String.trim body);
  (* unknown target, wrong method *)
  Alcotest.(check bool) "404" true
    (String.sub (get "/nope") 0 12 = "HTTP/1.0 404");
  Alcotest.(check bool) "405" true
    (String.sub
       (Http.handle d.engine ~now:!(d.now) { Http.meth = "POST"; target = "/metrics" })
       0 12
    = "HTTP/1.0 405");
  (* draining flips /healthz to 503 but /metrics keeps answering *)
  Engine.drain d.engine ~now:!(d.now);
  Alcotest.(check bool) "healthz 503 in drain" true
    (String.sub (get "/healthz") 0 12 = "HTTP/1.0 503");
  Alcotest.(check bool) "metrics still served in drain" true
    (String.sub (get "/metrics") 0 12 = "HTTP/1.0 200")

(* --- top ------------------------------------------------------------------- *)

let test_top_render_and_replay () =
  let m = Metrics.create () in
  let bump name by = Metrics.incr ~by (Metrics.counter m name) in
  bump "server/requests" 40;
  bump "server/granted" 30;
  Metrics.set (Metrics.gauge m "server/queue-now") 3;
  bump "server/session/alpha/requests" 40;
  List.iter
    (Metrics.observe (Metrics.histogram m "server/session/alpha/latency-us"))
    [ 10; 20; 900 ];
  bump "server/session/alpha/sheds" 2;
  Metrics.set (Metrics.gauge m "server/session/alpha/breaker-open") 0;
  let s1 = Metrics.snapshot m in
  bump "server/requests" 10;
  bump "server/session/alpha/requests" 10;
  bump "server/session/beta/requests" 5;
  let s2 = Metrics.snapshot m in
  Alcotest.(check (list string)) "sessions in first-appearance order"
    [ "alpha"; "beta" ] (Top.sessions_of s2);
  let total = Top.render s2 in
  Alcotest.(check bool) "totals header" true
    (contains total "requests 50" && contains total "queue 3");
  Alcotest.(check bool) "cumulative column without prev" true
    (contains total "TOTAL");
  let rated = Top.render ~prev:s1 ~interval:2.0 s2 in
  (* alpha gained 10 requests over 2 seconds *)
  Alcotest.(check bool) "rps = delta / interval" true (contains rated "5.0");
  Alcotest.(check bool) "new session appears" true (contains rated "beta");
  (* percentiles walk the log2 buckets *)
  (match Metrics.find m "server/session/alpha/latency-us" with
  | Some (Metrics.Histogram s) ->
      Alcotest.(check int) "p50 bucket bound" 31 (Top.percentile s 0.5);
      Alcotest.(check int) "p99 bucket bound" 1023 (Top.percentile s 0.99)
  | _ -> Alcotest.fail "alpha latency histogram missing");
  (* the replay path feeds the same renderer *)
  let jsonl =
    Json.render (Metrics.snapshot_to_json s1)
    ^ "\n"
    ^ Json.render (Metrics.snapshot_to_json s2)
    ^ "\n"
  in
  match Top.frames_of_jsonl jsonl with
  | Ok [ r1; r2 ] ->
      Alcotest.(check bool) "frames round-trip" true (r1 = s1 && r2 = s2)
  | Ok fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs)
  | Error e -> Alcotest.failf "replay: %s" e

(* --- loadgen -------------------------------------------------------------- *)

let test_loadgen_engine () =
  let entry = Paper.find "ex7" in
  let r =
    Loadgen.run_engine ~requests:3000 ~window:32 ~entry
      ~policy:(Policy.allow [ 0 ]) ()
  in
  Alcotest.(check int) "all requests tallied" 3000
    (r.Loadgen.granted + r.Loadgen.denied + r.Loadgen.overloads);
  Alcotest.(check int) "no fail-open" 0 r.Loadgen.fail_open;
  Alcotest.(check bool) "made progress" true (r.Loadgen.rps > 0.)

(* Running loadgen with the simulated scraper in the loop changes
   nothing about the replies — observability must not perturb verdicts. *)
let test_loadgen_scrape_parity () =
  let entry = Paper.find "ex7" in
  let r =
    Loadgen.run_engine ~requests:2000 ~window:32 ~scrape_hz:200. ~entry
      ~policy:(Policy.allow [ 0 ]) ()
  in
  Alcotest.(check int) "all requests tallied" 2000
    (r.Loadgen.granted + r.Loadgen.denied + r.Loadgen.overloads);
  Alcotest.(check int) "no fail-open with scraping on" 0 r.Loadgen.fail_open;
  Alcotest.(check bool) "the scraper actually ran" true (r.Loadgen.scrapes > 0)

(* --- chaos ---------------------------------------------------------------- *)

(* The sweep report is byte-identical whatever the pool width. *)
let test_chaos_jobs_parity () =
  let entries = [ Paper.find "ex7" ] in
  let json jobs =
    Chaos.to_json_string (Chaos.run ~entries ~seeds:4 ~jobs ())
  in
  Alcotest.(check string) "jobs 1 = jobs 2" (json 1) (json 2)

(* --- the daemon, for real ------------------------------------------------- *)

(* A real daemon on a real Unix socket (in its own domain — its select
   loop and the blocking client run concurrently), talked to with the
   typed client, drained, and joined cleanly. *)
let test_daemon_socket_smoke () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "secpol-test-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let entry = Paper.find "ex7" in
  let policy = Policy.allow [ 0 ] in
  let dom =
    Domain.spawn (fun () ->
        try
          Daemon.serve ~signals:false (Daemon.Unix_path path);
          `Ok
        with e -> `Err (Printexc.to_string e))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Client.connect ~retries:50 (Daemon.Unix_path path) in
      (match Client.hello c ~client:"test" with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "hello refused: %s" m);
      let spec = Loadgen.session_spec ~session:"smoke" ~policy () in
      (match Client.open_session c spec with
      | Ok () -> ()
      | Error m -> Alcotest.failf "session refused: %s" m);
      Seq.iteri
        (fun id a ->
          match
            Client.enforce c ~session:"smoke" ~request_id:id ~program:"ex7" a
          with
          | Ok got ->
              let want = clean_reply entry ~policy a in
              if got <> want then
                Alcotest.failf "daemon diverged on input %d: %s vs %s" id
                  (FReport.show_reply got) (FReport.show_reply want)
          | Error m -> Alcotest.failf "enforce refused: %s" m)
        (Space.enumerate entry.Paper.space);
      (match Client.drain c with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "drain refused: %s" m);
      Client.close c;
      match Domain.join dom with
      | `Ok -> ()
      | `Err m -> Alcotest.failf "daemon raised: %s" m)

(* The observability plane on a real daemon: /healthz answers ok,
   /metrics scrapes to a snapshot carrying the advertised series, and the
   plane goes down with the daemon after drain. *)
let test_daemon_metrics_plane () =
  let tmp = Filename.get_temp_dir_name () in
  let path =
    Filename.concat tmp (Printf.sprintf "secpol-mp-%d.sock" (Unix.getpid ()))
  in
  let mpath =
    Filename.concat tmp (Printf.sprintf "secpol-mp-%d-m.sock" (Unix.getpid ()))
  in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; mpath ];
  let entry = Paper.find "ex7" in
  let policy = Policy.allow [ 0 ] in
  let maddr = Daemon.Unix_path mpath in
  let dom =
    Domain.spawn (fun () ->
        try
          Daemon.serve ~signals:false ~metrics_address:maddr
            ~http_deadline:0.2 (Daemon.Unix_path path);
          `Ok
        with e -> `Err (Printexc.to_string e))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; mpath ])
    (fun () ->
      let c = Client.connect ~retries:50 (Daemon.Unix_path path) in
      let spec = Loadgen.session_spec ~session:"smoke" ~policy () in
      (match Client.open_session c spec with
      | Ok () -> ()
      | Error m -> Alcotest.failf "session refused: %s" m);
      Seq.iteri
        (fun id a ->
          match
            Client.enforce c ~session:"smoke" ~request_id:id ~program:"ex7" a
          with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "enforce refused: %s" m)
        (Space.enumerate entry.Paper.space);
      let rec scrape_ok what path retries =
        match Top.scrape maddr ~path with
        | Ok body -> body
        | Error _ when retries > 0 ->
            Unix.sleepf 0.05;
            scrape_ok what path (retries - 1)
        | Error m -> Alcotest.failf "%s: %s" what m
      in
      let health = scrape_ok "healthz" "/healthz" 50 in
      Alcotest.(check bool) "healthz reports ok" true
        (contains health "\"ok\":true");
      (match Top.scrape_snapshot maddr with
      | Error m -> Alcotest.failf "metrics scrape: %s" m
      | Ok snap ->
          let served =
            match List.assoc_opt "server/served" snap with
            | Some (Metrics.Counter c) -> c
            | _ -> 0
          in
          Alcotest.(check bool) "served counter over the wire" true
            (served > 0);
          List.iter
            (fun name ->
              if not (List.mem_assoc name snap) then
                Alcotest.failf "required series %s missing" name)
            [
              "server/requests";
              "server/open-sessions";
              "server/queue-now";
              "server/session/smoke/requests";
              "server/session/smoke/latency-us";
            ];
          Alcotest.(check bool) "top sees the session" true
            (List.mem "smoke" (Top.sessions_of snap)));
      (* A scraper that connects and never sends a request line is
         reclaimed once the http deadline passes — and meanwhile never
         blocks the plane for anyone else. *)
      let silent = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect silent (Unix.ADDR_UNIX mpath);
      Unix.sleepf 0.5;
      ignore (scrape_ok "healthz with a silent scraper" "/healthz" 50);
      let reclaimed =
        match Unix.select [ silent ] [] [] 5.0 with
        | [], _, _ -> false (* still open and quiet after the deadline *)
        | _ -> (
            let b = Bytes.create 1 in
            match Unix.read silent b 0 1 with
            | 0 -> true
            | _ -> false
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                true)
      in
      Unix.close silent;
      Alcotest.(check bool) "silent scraper reclaimed" true reclaimed;
      (match Client.drain c with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "drain refused: %s" m);
      Client.close c;
      (match Domain.join dom with
      | `Ok -> ()
      | `Err m -> Alcotest.failf "daemon raised: %s" m);
      match Top.scrape maddr ~path:"/healthz" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "metrics plane survived the daemon")

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          prop_wire_round_trip;
          Alcotest.test_case "response-round-trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "damage-rejected" `Quick test_wire_damage_rejected;
        ] );
      ("admission", [ prop_admission_conserves; prop_admission_deterministic ]);
      ( "engine",
        [
          Alcotest.test_case "clean-parity" `Quick test_engine_clean_parity;
          Alcotest.test_case "deadline-zero" `Quick
            test_deadline_zero_always_shed;
          Alcotest.test_case "overload-burst" `Quick
            test_overload_burst_all_answered;
          Alcotest.test_case "drain" `Quick test_drain_answers_everything;
          Alcotest.test_case "kill-restart-resume" `Quick
            test_kill_restart_resume;
          Alcotest.test_case "circuit-breaker" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "health" `Quick test_engine_health;
          Alcotest.test_case "session-parity" `Quick test_session_parity;
          Alcotest.test_case "latency-histogram" `Quick
            test_session_latency_histogram;
        ] );
      ( "observability",
        [
          Alcotest.test_case "http-routes" `Quick test_http_routes;
          Alcotest.test_case "top-render-and-replay" `Quick
            test_top_render_and_replay;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "engine" `Quick test_loadgen_engine;
          Alcotest.test_case "scrape-parity" `Quick test_loadgen_scrape_parity;
        ] );
      ( "chaos",
        [ Alcotest.test_case "jobs-parity" `Quick test_chaos_jobs_parity ] );
      ( "daemon",
        [
          Alcotest.test_case "socket-smoke" `Quick test_daemon_socket_smoke;
          Alcotest.test_case "metrics-plane" `Quick test_daemon_metrics_plane;
        ] );
    ]
