module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Graph = Secpol_flowgraph.Graph
module Expr = Secpol_flowgraph.Expr
module Dynamic = Secpol_taint.Dynamic
module Certifier = Secpol_staticflow.Certifier
module Guard = Secpol_fault.Guard
module Injector = Secpol_fault.Injector
module Media = Secpol_journal.Media
module Runner = Secpol_journal.Runner
module Sink = Secpol_trace.Sink

type slice = {
  shard_id : int;
  shards : int;
  arity : int;
  watch_set : Iset.t;
  sub_allowed : Iset.t;
}

let slices ~shards ~arity ~allowed =
  if shards < 1 then invalid_arg "Shard.slices: shards < 1";
  let full = Iset.full arity in
  let allowed = Iset.inter allowed full in
  let disallowed = Iset.diff full allowed in
  let watch = Array.make shards Iset.empty in
  List.iteri
    (fun k c ->
      let s = k mod shards in
      watch.(s) <- Iset.add c watch.(s))
    (Iset.to_list disallowed);
  Array.init shards (fun i ->
      {
        shard_id = i;
        shards;
        arity;
        watch_set = watch.(i);
        sub_allowed = Iset.diff full watch.(i);
      })

type t = {
  slice : slice;
  guard : Guard.config;
  injector : Injector.t option;
  journal : (unit -> Media.t) option;
  snapshot_every : int;
  sink : Sink.t;
  dcfg : Dynamic.config;
  graph : Graph.t;
  residual : Certifier.residual option;  (* None iff journaled *)
  mutable kill_next : int option;
  mutable killed : bool;
  mutable last_media : Media.t option;
  mutable last_stats : Dynamic.residual_stats;
  mutable cached : (int * string) option;  (* (nonce, encoded report) *)
  mutable attempt : int;
  mutable resumes : int;
}

let no_stats = { Dynamic.watched_boxes = 0; skipped_boxes = 0 }

let create ?(guard = Guard.default) ?injector ?journal
    ?(snapshot_every = Runner.default_snapshot_every) ?residual
    ?(sink = Sink.null) ?fuel ?cost ~mode slice g =
  if slice.arity <> g.Graph.arity then
    invalid_arg "Shard.create: slice and graph arity differ";
  let hook = Option.map Injector.hook injector in
  let emit = Sink.emitter ~graph:g sink in
  let dcfg =
    Dynamic.config ?fuel ?cost ?hook ~emit ~mode
      (Policy.allow_set slice.sub_allowed)
  in
  let residual =
    match journal with
    | Some _ -> None (* journaled shards run the full sub-policy monitor *)
    | None -> (
        match residual with
        | Some r -> Some r
        | None -> Some (Certifier.residual_plan ~allowed:slice.sub_allowed g))
  in
  {
    slice;
    guard;
    injector;
    journal;
    snapshot_every;
    sink;
    dcfg;
    graph = g;
    residual;
    kill_next = None;
    killed = false;
    last_media = None;
    last_stats = no_stats;
    cached = None;
    attempt = 1;
    resumes = 0;
  }

let slice t = t.slice
let watch_mask t = Iset.to_mask t.slice.watch_set
let kill t = t.killed <- true
let killed t = t.killed
let arm_kill t at = t.kill_next <- Some (max 1 at)
let resumes t = t.resumes

(* Collapse the leftover non-[E ∪ F] replies of unsupervised paths
   (mid-run death that still completed, journal recovery) the same way
   the guard would: into a denial, never a grant. *)
let fail_secure (reply : Mechanism.reply) =
  match reply.Mechanism.response with
  | Mechanism.Granted _ | Mechanism.Denied _ -> reply
  | Mechanism.Hung | Mechanism.Failed _ ->
      { reply with Mechanism.response = Mechanism.Denied Guard.degraded_notice }

let mechanism t =
  let name =
    Printf.sprintf "shard %d/%d of %s" t.slice.shard_id t.slice.shards
      t.graph.Graph.name
  in
  match t.residual with
  | Some plan ->
      let run =
        Dynamic.run_residual t.dcfg ~watch:plan.Certifier.watch t.graph
      in
      Mechanism.make ~name ~arity:t.slice.arity (fun a ->
          let reply, stats = run a in
          t.last_stats <- stats;
          reply)
  | None ->
      Mechanism.make ~name ~arity:t.slice.arity (fun a ->
          let media = (Option.get t.journal) () in
          t.last_media <- Some media;
          match
            Runner.run ~snapshot_every:t.snapshot_every ~sink:t.sink ~media
              ~program_ref:t.graph.Graph.name t.dcfg t.graph a
          with
          | Runner.Completed reply -> reply
          | Runner.Killed _ -> assert false (* no kill_at on this path *))

let package t ~nonce reply =
  let report =
    {
      Msg.shard_id = t.slice.shard_id;
      shards = t.slice.shards;
      nonce;
      attempt = t.attempt;
      watch_mask = Iset.to_mask t.slice.watch_set;
      watched_boxes = t.last_stats.Dynamic.watched_boxes;
      skipped_boxes = t.last_stats.Dynamic.skipped_boxes;
      reply;
    }
  in
  let bytes = Msg.encode report in
  t.cached <- Some (nonce, bytes);
  bytes

let execute t ~nonce a =
  if t.killed then None
  else begin
    t.attempt <- 1;
    t.last_stats <- no_stats;
    t.cached <- None;
    match (t.kill_next, t.journal) with
    | Some at, Some mk -> (
        t.kill_next <- None;
        let media = mk () in
        t.last_media <- Some media;
        match
          Runner.run ~kill_at:at ~snapshot_every:t.snapshot_every ~sink:t.sink
            ~media ~program_ref:t.graph.Graph.name t.dcfg t.graph a
        with
        | Runner.Killed _ ->
            (* Mid-run death: no report goes out, but the journal stays
               behind for [retransmit] to recover from. *)
            None
        | Runner.Completed reply ->
            Some (package t ~nonce (fail_secure reply)))
    | Some _, None ->
        (* No journal: death loses everything, permanently. *)
        t.kill_next <- None;
        t.killed <- true;
        None
    | None, _ ->
        let reply =
          Guard.reply_of_outcome
            (Guard.run ~config:t.guard ?injector:t.injector ~sink:t.sink
               (mechanism t) a)
        in
        Some (package t ~nonce reply)
  end

let retransmit t ~nonce =
  if t.killed then None
  else
    match t.cached with
    | Some (n, bytes) when n = nonce -> Some bytes
    | _ -> (
        match (t.journal, t.last_media) with
        | Some _, Some media ->
            t.attempt <- t.attempt + 1;
            t.resumes <- t.resumes + 1;
            let resolve (h : Runner.header) =
              if h.Runner.graph_hash = Runner.graph_hash t.graph then
                Ok t.graph
              else Error "shard resolver: unknown program"
            in
            let reply =
              Guard.reply_of_recovery
                (Result.map
                   (fun (r : Runner.resumed) -> r.Runner.reply)
                   (Runner.resume ~sink:t.sink ~resolve ~media ()))
            in
            Some (package t ~nonce (fail_secure reply))
        | _ -> None)
