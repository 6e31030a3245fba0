module Mechanism = Secpol_core.Mechanism
module Dynamic = Secpol_taint.Dynamic
module Graph = Secpol_flowgraph.Graph
module Hook = Secpol_flowgraph.Hook
module Guard = Secpol_fault.Guard
module Runner = Secpol_journal.Runner
module Media = Secpol_journal.Media
module Codec = Secpol_journal.Codec
module Paper = Secpol_corpus.Paper_programs
module Sink = Secpol_trace.Sink
module Event = Secpol_trace.Event
module Metrics = Secpol_trace.Metrics
module Pool = Secpol_engine.Pool
module Json = Secpol_staticflow.Lint.Json

exception Died

type config = {
  server_name : string;
  capacity : int;
  shed_seed : int;
  default_deadline_us : int;
  frame_deadline : float;
  exec_budget : int;
  jobs : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  snapshot_every : int;
  hook : Hook.t;
}

let default_config =
  {
    server_name = "secpol-serve";
    capacity = 64;
    shed_seed = 0;
    default_deadline_us = Wire.default_deadline_us;
    frame_deadline = 2.0;
    exec_budget = 32;
    jobs = 1;
    breaker_threshold = 3;
    breaker_cooldown = 0.5;
    snapshot_every = Runner.default_snapshot_every;
    hook = Hook.none;
  }

type conn = {
  id : int;
  stream : Wire.Stream.t;
  out : Buffer.t;
  mutable alive : bool;  (* still reading requests *)
  mutable closing : bool;  (* engine refused it: flush output, then close *)
}

(* A corpus program as the engine serves it: resolved once, on the first
   request (or recovery) that names it. [digest] is [Runner.graph_hash
   graph], which every journal header of the program carries. *)
type program = { graph : Graph.t; digest : string }

(* Everything the request path needs that is constant per (session,
   program), built once on the first enforce request for the pair. *)
type plan = {
  prog : program;
  dcfg : Dynamic.config;  (* the session's monitor, traced into the sink *)
  mech : Mechanism.t;
      (* Dynamic over [dcfg]: the base the guard wraps in an unjournaled
         session — the same two layers Run.mechanism composes, so a served
         verdict is bit-identical to a local run under the same config *)
  requests : Metrics.counter;  (* server/session/<s>/requests *)
  granted : Metrics.counter;  (* server/session/<s>/granted *)
  latency : Metrics.histogram;  (* server/session/<s>/latency-us *)
}

type work = {
  w_enforce : Wire.enforce;
  w_plan : plan;
  w_session : Session.t;
  w_arrival : float;  (* admission instant, for the latency histograms *)
}

type t = {
  cfg : config;
  store : Store.t;
  sink : Sink.t;
  ms : Metrics.t;
  programs : (string, program) Hashtbl.t;
  plans : (string * string, plan) Hashtbl.t;  (* (session, program) *)
  sessions : (string, Session.t) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;
  queue : work Admission.t;
  mutable next_conn : int;
  mutable kill_at : int option;
}

let config t = t.cfg
let metrics t = t.ms
let stats_json t = Json.render (Metrics.to_json t.ms)
let draining t = Admission.draining t.queue
let drained t = draining t && Admission.length t.queue = 0
let queue_length t = Admission.length t.queue

let session_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.sessions [])

let kill_next t ~at_box =
  if at_box < 0 then invalid_arg "Engine.kill_next: at_box < 0";
  t.kill_at <- Some at_box

let c t name = Metrics.counter t.ms name
let bump ?by t name = Metrics.incr ?by (c t name)

let emit t ev = Sink.emit t.sink ev

let program_of t name =
  match Hashtbl.find_opt t.programs name with
  | Some p -> Some p
  | None -> (
      match Paper.find name with
      | entry ->
          let graph = Paper.graph entry in
          let p = { graph; digest = Runner.graph_hash graph } in
          Hashtbl.add t.programs name p;
          Some p
      | exception Not_found -> None)

let resolve t (h : Runner.header) =
  match program_of t h.Runner.program_ref with
  | Some p -> Ok p.graph
  | None -> Error (Printf.sprintf "unknown program %S" h.Runner.program_ref)

(* ---------- recovery on restart ---------- *)

(* Complete (or refuse) every journaled run the dead process left behind,
   before any client reconnects: an interrupted run either resumes to its
   bit-identical verdict — re-delivered on the Resume request — or its
   journal is untrusted and the verdict is Λ/recovery. Either way the
   request is answered, never silently forgotten. *)
let recover t =
  let sessions = Session.load_all t.store in
  List.iter (fun s -> Hashtbl.replace t.sessions (Session.name s) s) sessions;
  if sessions <> [] then begin
    emit t
      (Event.Server
         {
           kind = Event.Restart;
           conn = -1;
           session = "";
           detail = Printf.sprintf "%d sessions" (List.length sessions);
         });
    bump t "server/restarts"
  end;
  List.iter
    (fun s ->
      if s.Session.spec.Wire.journaled then
        let prefix = Session.media_prefix ~session:(Session.name s) in
        List.iter
          (fun key ->
            if Store.has_media t.store key then begin
              let media = Store.media t.store key in
              (match
                 Runner.resume ~sink:t.sink ~resolve:(resolve t) ~media ()
               with
              | Ok _ -> bump t "server/resumed-runs"
              | Error Runner.No_journal -> ()
              | Error _ -> bump t "server/recovery-refusals");
              Media.close media;
              emit t
                (Event.Server
                   {
                     kind = Event.Resume_serve;
                     conn = -1;
                     session = Session.name s;
                     detail = key;
                   })
            end)
          (Store.keys t.store ~prefix))
    sessions

let create ?(config = default_config) ?(sink = Sink.null) ?metrics ~store ~now:_ () =
  if config.capacity < 1 then invalid_arg "Engine.create: capacity < 1";
  if config.exec_budget < 1 then invalid_arg "Engine.create: exec_budget < 1";
  let ms = match metrics with Some m -> m | None -> Metrics.create () in
  let t =
    {
      cfg = config;
      store;
      sink;
      ms;
      programs = Hashtbl.create 16;
      plans = Hashtbl.create 16;
      sessions = Hashtbl.create 16;
      conns = Hashtbl.create 16;
      queue = Admission.create ~seed:config.shed_seed ~capacity:config.capacity ();
      next_conn = 0;
      kill_at = None;
    }
  in
  recover t;
  t

(* ---------- connections ---------- *)

let open_conn t ~now:_ =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  Hashtbl.replace t.conns id
    { id; stream = Wire.Stream.create (); out = Buffer.create 256; alive = true; closing = false };
  emit t (Event.Server { kind = Event.Conn_open; conn = id; session = ""; detail = "" });
  bump t "server/conns";
  id

let feed t ~conn ~now bytes =
  match Hashtbl.find_opt t.conns conn with
  | Some cn when cn.alive && not cn.closing -> Wire.Stream.feed cn.stream ~now bytes
  | _ -> ()

let close_conn t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | Some cn ->
      emit t
        (Event.Server { kind = Event.Conn_close; conn; session = ""; detail = "" });
      bump t "server/disconnects";
      Hashtbl.remove t.conns conn;
      ignore cn
  | None -> ()

let output t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | Some cn ->
      let s = Buffer.contents cn.out in
      Buffer.clear cn.out;
      s
  | None -> ""

let conn_closing t ~conn =
  match Hashtbl.find_opt t.conns conn with Some cn -> cn.closing | None -> false

let conn_alive t ~conn =
  match Hashtbl.find_opt t.conns conn with Some cn -> cn.alive | None -> false

let push t conn_id resp =
  match Hashtbl.find_opt t.conns conn_id with
  | Some cn -> Buffer.add_string cn.out (Wire.encode_response resp)
  | None -> bump t "server/dropped-replies"

(* Refuse the connection: answer, stop reading, let the transport flush. *)
let refuse t (cn : conn) code detail =
  push t cn.id (Wire.Refused { code; detail });
  cn.closing <- true;
  emit t
    (Event.Server
       { kind = Event.Proto_error; conn = cn.id; session = ""; detail = code ^ ": " ^ detail });
  bump t "server/proto-errors"

(* ---------- request handling ---------- *)

let overload_reply =
  { Mechanism.response = Mechanism.Denied Wire.overload_notice; steps = 0 }

let recovery_reply =
  { Mechanism.response = Mechanism.Denied Guard.recovery_notice; steps = 0 }

let sname session what = Printf.sprintf "server/session/%s/%s" session what

(* Built on the first enforce request for the pair. *)
let plan_of t (session : Session.t) name (prog : program) =
  let key = (Session.name session, name) in
  match Hashtbl.find_opt t.plans key with
  | Some pl -> pl
  | None ->
      let spec = session.Session.spec in
      let dcfg =
        Dynamic.config ~fuel:spec.Wire.fuel ~hook:t.cfg.hook
          ~emit:(Sink.emitter ~graph:prog.graph t.sink)
          ~mode:spec.Wire.mode (Session.policy session)
      in
      let series = sname (Session.name session) in
      let pl =
        {
          prog;
          dcfg;
          mech = Dynamic.mechanism dcfg prog.graph;
          requests = Metrics.counter t.ms (series "requests");
          granted = Metrics.counter t.ms (series "granted");
          latency = Metrics.histogram t.ms (series "latency-us");
        }
      in
      Hashtbl.add t.plans key pl;
      pl

(* Answer [e] with Λ/overload. [cause] names why, in the event detail and
   in the server/shed-<cause> counter: an admission reason, or "breaker"
   for a session whose circuit breaker was open when the entry popped. *)
let shed t ?(kind = Event.Shed) (e : work Admission.entry) cause =
  push t e.Admission.conn
    (Wire.Reply
       {
         session = e.Admission.session;
         request_id = e.Admission.request_id;
         reply = overload_reply;
       });
  emit t
    (Event.Server
       {
         kind;
         conn = e.Admission.conn;
         session = e.Admission.session;
         detail = Printf.sprintf "request %d: %s" e.Admission.request_id cause;
       });
  bump t "server/shed";
  bump t ("server/shed-" ^ cause);
  bump t (sname e.Admission.session "sheds")

let shed_admission t e reason =
  let kind =
    match reason with Admission.Expired -> Event.Expire | _ -> Event.Shed
  in
  shed t ~kind e (Admission.reason_name reason)

let handle_enforce t (cn : conn) ~now (e : Wire.enforce) =
  match Hashtbl.find_opt t.sessions e.Wire.session with
  | None ->
      refuse t cn "unknown-session"
        (Printf.sprintf "no session %S (request %d)" e.Wire.session e.Wire.request_id)
  | Some session -> (
      match program_of t e.Wire.program with
      | None ->
          refuse t cn "unknown-program"
            (Printf.sprintf "no program %S (request %d)" e.Wire.program e.Wire.request_id)
      | Some p when Graph.(p.graph.arity) <> Array.length e.Wire.inputs ->
          refuse t cn "bad-arity"
            (Printf.sprintf "%s wants %d inputs, got %d (request %d)" e.Wire.program
               Graph.(p.graph.arity) (Array.length e.Wire.inputs) e.Wire.request_id)
      | Some p ->
          bump t "server/requests";
          let plan = plan_of t session e.Wire.program p in
          Metrics.incr plan.requests;
          let d_us =
            if e.Wire.deadline_us < 0 then t.cfg.default_deadline_us
            else e.Wire.deadline_us
          in
          let deadline = now +. (float_of_int d_us /. 1e6) in
          let decisions =
            Admission.offer t.queue ~now ~conn:cn.id ~session:e.Wire.session
              ~request_id:e.Wire.request_id ~deadline
              {
                w_enforce = e;
                w_plan = plan;
                w_session = session;
                w_arrival = now;
              }
          in
          List.iter
            (function
              | `Admitted (a : work Admission.entry) ->
                  bump t "server/admitted";
                  Metrics.observe
                    (Metrics.histogram t.ms "server/queue-depth")
                    (Admission.length t.queue);
                  if not (Sink.is_null t.sink) then
                    emit t
                      (Event.Server
                         {
                           kind = Event.Admit;
                           conn = a.Admission.conn;
                           session = a.Admission.session;
                           detail = Printf.sprintf "request %d" a.Admission.request_id;
                         })
              | `Shed (v, reason) -> shed_admission t v reason)
            decisions)

let handle_resume t (cn : conn) (session_name : string) request_id =
  match Hashtbl.find_opt t.sessions session_name with
  | None ->
      refuse t cn "unknown-session"
        (Printf.sprintf "no session %S (resume %d)" session_name request_id)
  | Some session ->
      let reply =
        if not session.Session.spec.Wire.journaled then recovery_reply
        else
          let key = Session.media_key ~session:session_name ~request_id in
          if not (Store.has_media t.store key) then recovery_reply
          else begin
            let media = Store.media t.store key in
            let res = Runner.resume ~sink:t.sink ~resolve:(resolve t) ~media () in
            Media.close media;
            Guard.reply_of_recovery (Result.map (fun r -> r.Runner.reply) res)
          end
      in
      (if reply.Mechanism.response = recovery_reply.Mechanism.response then
         bump t "server/recovery-denials"
       else bump t "server/resume-served");
      emit t
        (Event.Server
           {
             kind = Event.Resume_serve;
             conn = cn.id;
             session = session_name;
             detail = Printf.sprintf "request %d" request_id;
           });
      push t cn.id (Wire.Reply { session = session_name; request_id; reply })

let handle_request t (cn : conn) ~now req =
  match req with
  | Wire.Hello _ -> push t cn.id (Wire.Welcome { server = t.cfg.server_name })
  | Wire.Open_session spec ->
      if draining t then refuse t cn "draining" "server is draining"
      else if not (Session.valid_name spec.Wire.session) then
        refuse t cn "bad-session" (Printf.sprintf "bad session name %S" spec.Wire.session)
      else (
        match Hashtbl.find_opt t.sessions spec.Wire.session with
        | Some existing when Session.spec_equal existing.Session.spec spec ->
            push t cn.id (Wire.Session_opened { session = spec.Wire.session })
        | Some _ ->
            refuse t cn "session-exists"
              (Printf.sprintf "session %S exists with a different config" spec.Wire.session)
        | None ->
            let s = Session.create spec in
            Hashtbl.replace t.sessions spec.Wire.session s;
            Session.save t.store s;
            emit t
              (Event.Server
                 {
                   kind = Event.Session_open;
                   conn = cn.id;
                   session = spec.Wire.session;
                   detail = "";
                 });
            bump t "server/sessions";
            push t cn.id (Wire.Session_opened { session = spec.Wire.session }))
  | Wire.Enforce e -> handle_enforce t cn ~now e
  | Wire.Resume { session; request_id } -> handle_resume t cn session request_id
  | Wire.Stats -> push t cn.id (Wire.Stats_reply { body = stats_json t })
  | Wire.Drain ->
      if not (draining t) then begin
        Admission.drain t.queue;
        emit t
          (Event.Server { kind = Event.Drain; conn = cn.id; session = ""; detail = "" });
        bump t "server/drains"
      end;
      push t cn.id (Wire.Draining { outstanding = Admission.length t.queue })

let drain t ~now:_ =
  if not (draining t) then begin
    Admission.drain t.queue;
    emit t (Event.Server { kind = Event.Drain; conn = -1; session = ""; detail = "sigterm" });
    bump t "server/drains"
  end

(* ---------- execution ---------- *)

let journaled_mechanism t (session : Session.t) (e : Wire.enforce) (pl : plan)
    ~kill_at =
  let g = pl.prog.graph in
  let key =
    Session.media_key ~session:(Session.name session) ~request_id:e.Wire.request_id
  in
  Mechanism.make
    ~name:(Printf.sprintf "serve-journal(%s)" Graph.(g.name))
    ~arity:Graph.(g.arity)
    (fun a ->
      let media = Store.media t.store key in
      let outcome =
        Runner.run ?kill_at ~digest:pl.prog.digest
          ~snapshot_every:t.cfg.snapshot_every ~sink:t.sink ~media
          ~program_ref:e.Wire.program pl.dcfg g a
      in
      Media.close media;
      match outcome with
      | Runner.Completed r -> r
      | Runner.Killed _ -> raise Died)

(* One queue entry: the scripted kill (if armed) fires here; otherwise
   the run goes through the session's guard so the reply is total into
   E ∪ F whatever the monitor does. *)
let execute_one t (w : work) inputs =
  let session = w.w_session in
  let kill_at = t.kill_at in
  t.kill_at <- None;
  match kill_at with
  | Some _ when not session.Session.spec.Wire.journaled ->
      (* Process death before anything durable happened: the run simply
         never existed. Resume later finds no journal -> Λ/recovery. *)
      raise Died
  | Some at ->
      let m = journaled_mechanism t session w.w_enforce w.w_plan ~kill_at:(Some at) in
      (* An armed kill strikes during the run (Died) unless the run ends
         before box [at]; either way no guard retries a killed process. *)
      let reply = Mechanism.respond m inputs in
      (reply, false)
  | None ->
      let m =
        if session.Session.spec.Wire.journaled then
          journaled_mechanism t session w.w_enforce w.w_plan ~kill_at:None
        else w.w_plan.mech
      in
      let outcome, steps =
        Guard.run ~config:(Session.guard_config session) ~sink:t.sink m inputs
      in
      let degraded = match outcome with Guard.Degraded _ -> true | _ -> false in
      (Guard.reply_of_outcome (outcome, steps), degraded)

let classify t (reply : Mechanism.reply) =
  match reply.Mechanism.response with
  | Mechanism.Granted _ -> bump t "server/granted"
  | Mechanism.Denied n ->
      if n = Guard.degraded_notice || n = Guard.recovery_notice then
        bump t "server/fault-denials"
      else if n = Wire.overload_notice then bump t "server/overload-denials"
      else bump t "server/monitor-denials"
  | Mechanism.Hung | Mechanism.Failed _ -> bump t "server/breaches"

let execute t ~now =
  let budget = t.cfg.exec_budget in
  let batch = ref [] in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < budget do
    match Admission.pop t.queue ~now with
    | `Empty -> continue := false
    | `Expired e ->
        shed_admission t e Admission.Expired;
        Stdlib.incr n
    | `Run e ->
        let w = e.Admission.work in
        if Session.breaker_open w.w_session ~now then begin
          shed t e "breaker";
          bump t "server/breaker-sheds"
        end
        else batch := e :: !batch;
        Stdlib.incr n
  done;
  let batch = Array.of_list (List.rev !batch) in
  let nb = Array.length batch in
  if nb > 0 then begin
    let run i =
      let e = batch.(i) in
      execute_one t e.Admission.work e.Admission.work.w_enforce.Wire.inputs
    in
    Metrics.set (Metrics.gauge t.ms "server/pool-in-flight") nb;
    let results =
      if nb = 1 || t.cfg.jobs <= 1 then Array.init nb run
      else begin
        let rs, _pstats = Pool.map ~jobs:t.cfg.jobs nb run in
        (* Only the deterministic part of the pool telemetry lands in the
           registry; steals/idle probes are scheduling noise (stderr). *)
        bump ~by:nb t "server/pool-tasks";
        rs
      end
    in
    Metrics.set (Metrics.gauge t.ms "server/pool-in-flight") 0;
    Array.iteri
      (fun i (reply, degraded) ->
        let e = batch.(i) in
        let w = e.Admission.work in
        Session.record_outcome w.w_session ~now ~threshold:t.cfg.breaker_threshold
          ~cooldown:t.cfg.breaker_cooldown ~degraded;
        classify t reply;
        bump t "server/served";
        (match reply.Mechanism.response with
        | Mechanism.Granted _ -> Metrics.incr w.w_plan.granted
        | Mechanism.Denied _ | Mechanism.Hung | Mechanism.Failed _ -> ());
        let latency_us =
          let us = int_of_float ((now -. w.w_arrival) *. 1e6) in
          if us < 0 then 0 else us
        in
        Metrics.observe (Metrics.histogram t.ms "server/latency-us") latency_us;
        Metrics.observe w.w_plan.latency latency_us;
        Metrics.observe (Metrics.histogram t.ms "server/exec-steps")
          reply.Mechanism.steps;
        if not (Sink.is_null t.sink) then
          emit t
            (Event.Server
               {
                 kind = Event.Serve;
                 conn = e.Admission.conn;
                 session = e.Admission.session;
                 detail = Printf.sprintf "request %d" e.Admission.request_id;
               });
        push t e.Admission.conn
          (Wire.Reply
             {
               session = e.Admission.session;
               request_id = e.Admission.request_id;
               reply;
             }))
      results
  end

let parse_conn t (cn : conn) ~now =
  let continue = ref true in
  while !continue && cn.alive && not cn.closing do
    match Wire.Stream.next cn.stream with
    | `Frame payload -> (
        match Wire.decode_request payload with
        | Ok req -> handle_request t cn ~now req
        | Error e ->
            bump t "server/wire-decode-errors";
            refuse t cn "proto" (Codec.error_message e))
    | `Await ->
        (match Wire.Stream.stalled_since cn.stream with
        | Some t0
          when Wire.Stream.pending_bytes cn.stream > 0
               && now -. t0 > t.cfg.frame_deadline ->
            refuse t cn "slow"
              (Printf.sprintf "frame stalled %.3fs" (now -. t0))
        | _ -> ());
        continue := false
    | `Corrupt e ->
        bump t "server/wire-decode-errors";
        refuse t cn "proto" (Codec.error_message e);
        continue := false
  done

(* Instantaneous state, published after every step so a scrape between
   steps reads the post-step truth. Session order is sorted-name so the
   registration order (and with it every rendering) is deterministic. *)
let refresh_gauges t ~now =
  Metrics.set (Metrics.gauge t.ms "server/queue-now") (Admission.length t.queue);
  Metrics.set (Metrics.gauge t.ms "server/open-conns") (Hashtbl.length t.conns);
  Metrics.set
    (Metrics.gauge t.ms "server/open-sessions")
    (Hashtbl.length t.sessions);
  let open_breakers = ref 0 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.sessions name with
      | None -> ()
      | Some s ->
          let b = if Session.breaker_open s ~now then 1 else 0 in
          open_breakers := !open_breakers + b;
          Metrics.set (Metrics.gauge t.ms (sname name "breaker-open")) b)
    (session_names t);
  Metrics.set (Metrics.gauge t.ms "server/breakers-open") !open_breakers

let step t ~now =
  let ids =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.conns [])
  in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.conns id with
      | Some cn -> parse_conn t cn ~now
      | None -> ())
    ids;
  execute t ~now;
  refresh_gauges t ~now

(* ---------- health ---------- *)

type health = {
  ok : bool;
  status : string;
  draining : bool;
  drained : bool;
  queue : int;
  capacity : int;
  sessions : int;
  conns : int;
  breakers_open : int;
  recovery_refusals : int;
}

let health t ~now =
  let is_draining = draining t and is_drained = drained t in
  let sessions = Hashtbl.length t.sessions in
  let breakers_open =
    Hashtbl.fold
      (fun _ s acc -> if Session.breaker_open s ~now then acc + 1 else acc)
      t.sessions 0
  in
  let recovery_refusals = Metrics.counter_value t.ms "server/recovery-refusals" in
  let saturated = sessions > 0 && breakers_open = sessions in
  let status =
    if is_drained then "drained"
    else if is_draining then "draining"
    else if saturated then "breakers-saturated"
    else if recovery_refusals > 0 then "recovery-refusals"
    else "ok"
  in
  {
    (* Refused journals are already answered fail-secure (Λ/recovery per
       request); they mark the health detail, not liveness. *)
    ok = (status = "ok" || status = "recovery-refusals");
    status;
    draining = is_draining;
    drained = is_drained;
    queue = Admission.length t.queue;
    capacity = t.cfg.capacity;
    sessions;
    conns = Hashtbl.length t.conns;
    breakers_open;
    recovery_refusals;
  }

let health_json (h : health) =
  Json.render
    (Json.Obj
       [
         ("ok", Json.Bool h.ok);
         ("status", Json.String h.status);
         ("draining", Json.Bool h.draining);
         ("drained", Json.Bool h.drained);
         ("queue", Json.Int h.queue);
         ("capacity", Json.Int h.capacity);
         ("sessions", Json.Int h.sessions);
         ("conns", Json.Int h.conns);
         ("breakers_open", Json.Int h.breakers_open);
         ("recovery_refusals", Json.Int h.recovery_refusals);
       ])
