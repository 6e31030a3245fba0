module Mechanism = Secpol_core.Mechanism
module Interp = Secpol_flowgraph.Interp
module Hook = Secpol_flowgraph.Hook
module Graph = Secpol_flowgraph.Graph
module Dynamic = Secpol_taint.Dynamic
module Guard = Secpol_fault.Guard
module Runner = Secpol_journal.Runner
module Media = Secpol_journal.Media
module Sink = Secpol_trace.Sink
module Metrics = Secpol_trace.Metrics
module Pool = Secpol_engine.Pool
module Certifier = Secpol_staticflow.Certifier
module Dist_shard = Secpol_dist.Shard
module Dist_coordinator = Secpol_dist.Coordinator

type journal = {
  media : [ `Memory | `Dir of string ];
  snapshot_every : int;
  program_ref : string;
}

type config = {
  policy : Secpol_core.Policy.t option;
  mode : Dynamic.mode;
  fuel : int;
  cost : Secpol_flowgraph.Expr.cost_model;
  hook : Hook.t;
  trace : Sink.t;
  guard : Guard.config option;
  journal : journal option;
  jobs : int;
  residual : bool;
  shards : int;
  metrics : Metrics.t option;
}

let config ?policy ?(mode = Dynamic.Surveillance) ?(fuel = Interp.default_fuel)
    ?(cost = Secpol_flowgraph.Expr.Uniform) ?(hook = Hook.none)
    ?(trace = Sink.null) ?guard ?journal ?(jobs = 1) ?(residual = false)
    ?(shards = 1) ?metrics () =
  { policy; mode; fuel; cost; hook; trace; guard; journal; jobs; residual;
    shards; metrics }

let journal_memory ?(snapshot_every = Runner.default_snapshot_every)
    ~program_ref () =
  { media = `Memory; snapshot_every; program_ref }

let journal_dir ?(snapshot_every = Runner.default_snapshot_every) ~program_ref
    dir =
  { media = `Dir dir; snapshot_every; program_ref }

(* The stack is composed inside-out: monitor (or plain interpreter), then
   journal, then guard. Each layer is the underlying module verbatim, so a
   one-layer config is bit-identical to calling that module directly. *)

let monitored cfg g =
  let emit = Sink.emitter ~graph:g cfg.trace in
  match cfg.policy with
  | Some policy ->
      let dcfg =
        Dynamic.config ~fuel:cfg.fuel ~cost:cfg.cost ~hook:cfg.hook ~emit
          ~mode:cfg.mode policy
      in
      if not cfg.residual then Dynamic.mechanism dcfg g
      else begin
        (* The certifier's watch plan and the prepared residual monitor are
           fixed per (graph, policy) pair; build them once here, outside the
           respond path. *)
        let plan = Certifier.residual_plan ~allowed:dcfg.Dynamic.allowed g in
        let run = Dynamic.run_residual dcfg ~watch:plan.Certifier.watch g in
        let record stats =
          match cfg.metrics with
          | None -> ()
          | Some m ->
              Metrics.incr (Metrics.counter m "run/residual/runs");
              Metrics.incr
                ~by:stats.Dynamic.watched_boxes
                (Metrics.counter m "run/residual/watched-boxes");
              Metrics.incr
                ~by:stats.Dynamic.skipped_boxes
                (Metrics.counter m "run/residual/skipped-boxes")
        in
        Mechanism.make
          ~name:
            (Printf.sprintf "residual-%s(%s)"
               (Dynamic.mode_name cfg.mode)
               g.Graph.name)
          ~arity:g.Graph.arity
          (fun a ->
            let reply, stats = run a in
            record stats;
            reply)
      end
  | None ->
      if cfg.residual then
        invalid_arg "Run: a residual run needs a policy to certify against";
      Interp.graph_mechanism ~fuel:cfg.fuel ~hook:cfg.hook ~emit g

let journaled cfg j g =
  let policy =
    match cfg.policy with
    | Some p -> p
    | None -> invalid_arg "Run: a journaled run needs a policy"
  in
  let emit = Sink.emitter ~graph:g cfg.trace in
  let dcfg =
    Dynamic.config ~fuel:cfg.fuel ~cost:cfg.cost ~hook:cfg.hook ~emit
      ~mode:cfg.mode policy
  in
  let respond a =
    let media =
      match j.media with `Memory -> Media.memory () | `Dir d -> Media.dir d
    in
    let outcome =
      Runner.run ~snapshot_every:j.snapshot_every ~sink:cfg.trace ~media
        ~program_ref:j.program_ref dcfg g a
    in
    Media.close media;
    match outcome with
    | Runner.Completed r -> r
    | Runner.Killed _ -> assert false (* no kill_at through this path *)
  in
  Mechanism.make
    ~name:(Printf.sprintf "journal(%s)" g.Graph.name)
    ~arity:g.Graph.arity respond

(* Distributed enforcement: deal the policy's disallowed coordinates
   across [cfg.shards] shard enforcers, run them in parallel on the
   engine pool, and merge fail-securely. The guard moves INSIDE each
   shard (a shard is total into E ∪ F on its own); the coordinator's
   merge supplies the outer totalization, collapsing every distributed
   failure to Λ/partition. *)
let distributed cfg g =
  let policy =
    match cfg.policy with
    | Some p -> p
    | None -> invalid_arg "Run: distributed enforcement needs a policy"
  in
  let allowed =
    match Secpol_core.Policy.allowed_indices policy with
    | Some j -> j
    | None ->
        invalid_arg "Run: distributed enforcement needs an allow(J) policy"
  in
  if cfg.residual then
    invalid_arg
      "Run: distributed shards pick their own residual plans; drop the \
       residual flag";
  if cfg.hook != Hook.none then
    invalid_arg
      "Run: distributed shards do not thread a host fault hook; use the \
       distributed chaos sweep for fault injection";
  if cfg.shards > Pool.max_jobs then
    invalid_arg
      (Printf.sprintf "Run: at most %d shards are supported" Pool.max_jobs);
  let guard = Option.value cfg.guard ~default:Guard.default in
  let slices =
    Dist_shard.slices ~shards:cfg.shards ~arity:g.Graph.arity ~allowed
  in
  (* Residual plans are fixed per (graph, sub-policy): compute them once,
     outside the respond path — unjournaled shards only. *)
  let residuals =
    match cfg.journal with
    | Some _ -> [||]
    | None ->
        Array.map
          (fun (sl : Dist_shard.slice) ->
            Certifier.residual_plan ~allowed:sl.Dist_shard.sub_allowed g)
          slices
  in
  let record ~reply stats =
    match cfg.metrics with
    | None -> ()
    | Some m -> Dist_coordinator.record m ~reply stats
  in
  let respond a =
    let shards =
      Array.map
        (fun (sl : Dist_shard.slice) ->
          let i = sl.Dist_shard.shard_id in
          (* Distinct jitter seeds desynchronize co-located shards'
             retry storms while keeping each schedule replayable. *)
          let guard =
            {
              guard with
              Guard.jitter = Option.map (fun s -> s + i) guard.Guard.jitter;
            }
          in
          match cfg.journal with
          | Some j ->
              let journal () =
                match j.media with
                | `Memory -> Media.memory ()
                | `Dir d ->
                    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
                    Media.dir (Filename.concat d (Printf.sprintf "shard-%d" i))
              in
              Dist_shard.create ~guard ~journal
                ~snapshot_every:j.snapshot_every ~sink:cfg.trace ~fuel:cfg.fuel
                ~cost:cfg.cost ~mode:cfg.mode sl g
          | None ->
              Dist_shard.create ~guard ~residual:residuals.(i) ~sink:cfg.trace
                ~fuel:cfg.fuel ~cost:cfg.cost ~mode:cfg.mode sl g)
        slices
    in
    let sink =
      if cfg.jobs > 1 then Sink.synchronized cfg.trace else cfg.trace
    in
    let reply, stats =
      Dist_coordinator.enforce ~sink ~jobs:cfg.jobs
        ~nonce:(Dist_coordinator.fresh_nonce ())
        shards a
    in
    record ~reply stats;
    reply
  in
  Mechanism.make
    ~name:
      (Printf.sprintf "dist%d-%s(%s)" cfg.shards
         (Dynamic.mode_name cfg.mode)
         g.Graph.name)
    ~arity:g.Graph.arity respond

let mechanism cfg g =
  if cfg.shards < 1 then invalid_arg "Run: shards must be at least 1";
  if cfg.shards > 1 then distributed cfg g
  else
  let base =
    match cfg.journal with
    | Some _ when cfg.residual ->
        invalid_arg
          "Run: residual monitoring does not journal (a residual taint \
           image would not resume into a full monitor)"
    | Some j -> journaled cfg j g
    | None -> monitored cfg g
  in
  match cfg.guard with
  | Some gc -> Guard.protect ~config:gc ~sink:cfg.trace base
  | None -> base

let run cfg g a = Mechanism.respond (mechanism cfg g) a

let batch cfg g inputs =
  (match cfg.journal with
  | Some { media = `Dir _; _ } when cfg.jobs > 1 ->
      invalid_arg "Run.batch: parallel runs cannot share a journal directory"
  | _ -> ());
  let cfg =
    if cfg.jobs > 1 then { cfg with trace = Sink.synchronized cfg.trace }
    else cfg
  in
  let arr = Array.of_list inputs in
  let m = mechanism cfg g in
  let replies, stats =
    Pool.map ~jobs:cfg.jobs (Array.length arr) (fun i ->
        Mechanism.respond m arr.(i))
  in
  (Array.to_list replies, stats)

let resume cfg ~resolve ~media =
  Runner.resume
    ~emit:(Sink.emitter cfg.trace)
    ~sink:cfg.trace ~resolve ~media ()

let reply_of_resume res =
  Guard.reply_of_recovery (Result.map (fun r -> r.Runner.reply) res)
