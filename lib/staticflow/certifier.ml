module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Lattice = Secpol_core.Lattice
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Graph = Secpol_flowgraph.Graph
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic

type env = Iset.t Var.Map.t

let taint_of env v =
  match Var.Map.find_opt v env with Some t -> t | None -> Iset.empty

let vars_taint env vs =
  Var.Set.fold (fun v acc -> Iset.union (taint_of env v) acc) vs Iset.empty

let merge (a : env) (b : env) : env =
  Var.Map.union (fun _ ta tb -> Some (Iset.union ta tb)) a b

let env_equal (a : env) (b : env) = Var.Map.equal Iset.equal a b

(* --- fault channels ------------------------------------------------------

   Variables whose value can decide WHETHER expression evaluation faults:
   the variables of every divisor or modulus subexpression (a constant
   non-zero divisor cannot fault; a constant zero always faults, so fault
   occurrence carries no data — reaching the box at all is the control
   channel, accounted separately). A [Cond] evaluates its predicate and
   both arms, so all three contribute. *)
let rec fault_vars (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Var _ -> Var.Set.empty
  | Expr.Neg a | Expr.Bnot a -> fault_vars a
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b)
  | Expr.Bor (a, b) | Expr.Band (a, b) ->
      Var.Set.union (fault_vars a) (fault_vars b)
  | Expr.Div (a, b) | Expr.Mod (a, b) ->
      let sub = Var.Set.union (fault_vars a) (fault_vars b) in
      (match b with
      | Expr.Const _ -> sub
      | _ -> Var.Set.union sub (Expr.vars b))
  | Expr.Cond (p, a, b) ->
      Var.Set.union (fault_pred_vars p)
        (Var.Set.union (fault_vars a) (fault_vars b))

and fault_pred_vars (p : Expr.pred) =
  match p with
  | Expr.True | Expr.False -> Var.Set.empty
  | Expr.Cmp (_, a, b) -> Var.Set.union (fault_vars a) (fault_vars b)
  | Expr.And (a, b) | Expr.Or (a, b) ->
      Var.Set.union (fault_pred_vars a) (fault_pred_vars b)
  | Expr.Not a -> fault_pred_vars a

(* --- the collecting semantics --------------------------------------------

   A maximal fixed point over high-water transfer functions with a MONOTONE
   program-counter taint: an assignment's abstract taint joins the
   right-hand side, the control context AND the target's previous taint; a
   decision's test taint joins into the pc of every successor and is never
   restored. On any single run, every dynamic mode's taint state is
   pointwise below this (Scoped <= Surveillance <= High_water on each run,
   and the high-water run taint of each variable is below the MFP value at
   the corresponding node), so one analysis over-approximates all four
   monitors at once. {!Dataflow}'s region-bounded pc deliberately does NOT
   have this property — it matches the scoped monitor and is strictly below
   the surveillance monitor's monotone C-bar — which is why the certifier
   cannot reuse it. *)
type solution = {
  sol_reach : bool array;
  sol_env : env array;  (** taint environment on entry to each node *)
  sol_pc : Iset.t array;  (** monotone control-context taint on entry *)
}

let solve g =
  let n = Graph.node_count g in
  let reach = Graph.reachable g in
  let preds = Secpol_flowgraph.Graphalgo.predecessors g in
  let initial : env =
    let rec add i env =
      if i >= g.Graph.arity then env
      else add (i + 1) (Var.Map.add (Var.Input i) (Iset.singleton i) env)
    in
    add 0 Var.Map.empty
  in
  let in_env = Array.make n Var.Map.empty in
  in_env.(g.Graph.entry) <- initial;
  let pc = Array.make n Iset.empty in
  let out_of i =
    match g.Graph.nodes.(i) with
    | Graph.Assign (v, e, _) ->
        let written =
          Iset.union
            (vars_taint in_env.(i) (Expr.vars e))
            (Iset.union pc.(i) (taint_of in_env.(i) v))
        in
        (Var.Map.add v written in_env.(i), pc.(i))
    | Graph.Decision (p, _, _) ->
        ( in_env.(i),
          Iset.union pc.(i) (vars_taint in_env.(i) (Expr.pred_vars p)) )
    | Graph.Start _ | Graph.Halt | Graph.Halt_violation _ ->
        (in_env.(i), pc.(i))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if reach.(i) && i <> g.Graph.entry then begin
        let env_join, pc_join =
          List.fold_left
            (fun (ea, pa) p ->
              if reach.(p) then
                let e, pcp = out_of p in
                (merge ea e, Iset.union pa pcp)
              else (ea, pa))
            (Var.Map.empty, Iset.empty)
            preds.(i)
        in
        if not (env_equal env_join in_env.(i)) then begin
          in_env.(i) <- env_join;
          changed := true
        end;
        if not (Iset.equal pc_join pc.(i)) then begin
          pc.(i) <- pc_join;
          changed := true
        end
      end
    done
  done;
  { sol_reach = reach; sol_env = in_env; sol_pc = pc }

(* --- summaries ----------------------------------------------------------- *)

type summary = {
  halt_deps : Iset.t;
  control_deps : Iset.t;
  fault_deps : Iset.t;
  deps : Iset.t;
  violation_halts : bool;
}

let summarize_solution g sol =
  let n = Graph.node_count g in
  let halt_deps = ref Iset.empty
  and control_deps = ref Iset.empty
  and fault_deps = ref Iset.empty
  and violation_halts = ref false in
  for i = 0 to n - 1 do
    if sol.sol_reach.(i) then
      match g.Graph.nodes.(i) with
      | Graph.Halt ->
          halt_deps :=
            Iset.union !halt_deps
              (Iset.union (taint_of sol.sol_env.(i) Var.Out) sol.sol_pc.(i))
      | Graph.Halt_violation _ -> violation_halts := true
      | Graph.Decision (p, _, _) ->
          control_deps :=
            Iset.union !control_deps
              (Iset.union
                 (vars_taint sol.sol_env.(i) (Expr.pred_vars p))
                 sol.sol_pc.(i));
          fault_deps :=
            Iset.union !fault_deps
              (vars_taint sol.sol_env.(i) (fault_pred_vars p))
      | Graph.Assign (_, e, _) ->
          fault_deps :=
            Iset.union !fault_deps (vars_taint sol.sol_env.(i) (fault_vars e))
      | Graph.Start _ -> ()
  done;
  {
    halt_deps = !halt_deps;
    control_deps = !control_deps;
    fault_deps = !fault_deps;
    deps = Iset.union !halt_deps (Iset.union !control_deps !fault_deps);
    violation_halts = !violation_halts;
  }

let summarize g = summarize_solution g (solve g)

(* --- residual-monitor synthesis ------------------------------------------

   Which boxes must the dynamic monitor still watch? Verdicts depend only
   on the DISALLOWED part of every taint set the monitor checks (with the
   single notice, condemnation is "taint within allowed", i.e. "no
   disallowed bits"), so a box may be skipped whenever skipping provably
   preserves the disallowed part of everything that reaches a check:

   - a decision whose static test-plus-context taint has no disallowed bits
     can skip the pc update: the bits it would add are all allowed;
   - an assignment whose static written taint (high-water bound) has no
     disallowed bits can write the empty set instead of computing the join:
     the true taint's disallowed part is provably empty;
   - an assignment to a variable that can never reach a check — neither the
     output, nor any decision's test, nor (transitively) the right-hand
     side of an assignment to such a variable — may be skipped outright,
     whatever its taint.

   [Secpol_taint.Dynamic.run_residual] consumes the plan; the parity
   property (replies bit-identical to the fully monitored run, for every
   mode) is enforced corpus-wide and on random programs by the tests. *)
type residual = {
  watch : bool array;
  watched_boxes : int;
  skipped_boxes : int;
}

(* Variables whose taint can flow into a verdict check, flow-insensitively:
   Out and every tested variable, closed backwards through assignments. *)
let check_relevant g reach =
  let n = Graph.node_count g in
  let relevant = ref (Var.Set.singleton Var.Out) in
  for i = 0 to n - 1 do
    if reach.(i) then
      match g.Graph.nodes.(i) with
      | Graph.Decision (p, _, _) ->
          relevant := Var.Set.union !relevant (Expr.pred_vars p)
      | _ -> ()
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if reach.(i) then
        match g.Graph.nodes.(i) with
        | Graph.Assign (v, e, _) when Var.Set.mem v !relevant ->
            let more = Var.Set.union !relevant (Expr.vars e) in
            if not (Var.Set.equal more !relevant) then begin
              relevant := more;
              changed := true
            end
        | _ -> ()
    done
  done;
  !relevant

let residual_of_solution ~allowed g sol =
  let n = Graph.node_count g in
  let disallowed = Iset.diff (Iset.full g.Graph.arity) allowed in
  let dirty t = not (Iset.is_empty (Iset.inter t disallowed)) in
  let relevant = check_relevant g sol.sol_reach in
  let watch = Array.make n false in
  let watched = ref 0 and skipped = ref 0 in
  for i = 0 to n - 1 do
    if sol.sol_reach.(i) then
      match g.Graph.nodes.(i) with
      | Graph.Assign (v, e, _) ->
          let written =
            Iset.union
              (vars_taint sol.sol_env.(i) (Expr.vars e))
              (Iset.union sol.sol_pc.(i) (taint_of sol.sol_env.(i) v))
          in
          let w = Var.Set.mem v relevant && dirty written in
          watch.(i) <- w;
          incr (if w then watched else skipped)
      | Graph.Decision (p, _, _) ->
          let test =
            Iset.union
              (vars_taint sol.sol_env.(i) (Expr.pred_vars p))
              sol.sol_pc.(i)
          in
          let w = dirty test in
          watch.(i) <- w;
          incr (if w then watched else skipped)
      | Graph.Start _ | Graph.Halt | Graph.Halt_violation _ ->
          (* Halt checks stay live in every plan: they are the verdict. *)
          watch.(i) <- true
  done;
  { watch; watched_boxes = !watched; skipped_boxes = !skipped }

let residual_plan ~allowed g = residual_of_solution ~allowed g (solve g)

(* --- verdicts ------------------------------------------------------------ *)

type witness = {
  w_input : Value.t array;
  w_mode : Dynamic.mode;
  w_notice : string;
  w_steps : int;
  w_finding : Lint.finding option;
}

type verdict = Proved | Refuted of witness | Unknown

type report = {
  program : string;
  allowed : Iset.t;
  summary : summary;
  verdict : verdict;
  residual : residual;
}

let verdict_name = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Unknown -> "unknown"

let default_max_checks = 2048

(* Bounded concrete search for a condemnation. Surveillance first (the
   paper's M), then high-water, then timed: the modes' condemnations are
   not comparable in general, so each gets its pass. Scoped is omitted —
   its condemnations are a subset of surveillance's. A fuel denial is NOT a
   refutation: it witnesses divergence, which a sound monitor may report on
   every input of a class. *)
let find_witness ~fuel ~allowed ~space ~max_checks g =
  let modes = [ Dynamic.Surveillance; Dynamic.High_water; Dynamic.Timed ] in
  let policy = Policy.allow_set allowed in
  (* One prepared monitor per mode for the whole search. Its raw [respond]
     field is total like [Dynamic.run]: a space of the wrong arity yields
     [Failed] replies, not an exception. *)
  let mechs =
    List.map
      (fun mode ->
        (mode, Dynamic.mechanism (Dynamic.config ~fuel ~mode policy) g))
      modes
  in
  let finding () =
    let r = Lint.check ~allowed g in
    List.find_opt (fun (f : Lint.finding) -> f.Lint.severity = Lint.Error)
      r.Lint.findings
  in
  let condemns (mode, m) input =
    let reply = m.Mechanism.respond input in
    match reply.Mechanism.response with
    | Mechanism.Denied n when n <> Dynamic.fuel_notice ->
        Some
          {
            w_input = input;
            w_mode = mode;
            w_notice = n;
            w_steps = reply.Mechanism.steps;
            w_finding = finding ();
          }
    | _ -> None
  in
  let rec search seq checked =
    if checked >= max_checks then None
    else
      match seq () with
      | Seq.Nil -> None
      | Seq.Cons (input, rest) -> (
          match List.find_map (fun mc -> condemns mc input) mechs with
          | Some w -> Some w
          | None -> search rest (checked + 1))
  in
  search (Space.enumerate space) 0

let certify ?(fuel = Interp.default_fuel) ?space
    ?(max_checks = default_max_checks) ~allowed g =
  let sol = solve g in
  let summary = summarize_solution g sol in
  let residual = residual_of_solution ~allowed g sol in
  let disallowed = Iset.diff (Iset.full g.Graph.arity) allowed in
  let verdict =
    if
      Iset.is_empty (Iset.inter summary.deps disallowed)
      && not summary.violation_halts
    then Proved
    else
      let space =
        match space with
        | Some s -> s
        | None -> Space.ints ~lo:0 ~hi:2 ~arity:g.Graph.arity
      in
      match find_witness ~fuel ~allowed ~space ~max_checks g with
      | Some w -> Refuted w
      | None -> Unknown
  in
  { program = g.Graph.name; allowed; summary; verdict; residual }

let allowed_of policy =
  match Policy.allowed_indices policy with
  | Some j -> j
  | None ->
      invalid_arg
        (Printf.sprintf
           "Certifier: certification is defined for allow(...) policies, got %s"
           (Policy.name policy))

let certify_policy ?fuel ?space ?max_checks ~policy g =
  certify ?fuel ?space ?max_checks ~allowed:(allowed_of policy) g

let certify_label ?fuel ?space ?max_checks ~policy g =
  if Lattice.Label.arity policy <> g.Graph.arity then
    invalid_arg
      (Printf.sprintf
         "Certifier.certify_label: %d labels for a %d-input program"
         (Lattice.Label.arity policy) g.Graph.arity);
  certify ?fuel ?space ?max_checks ~allowed:(Lattice.Label.allowed_of policy) g

let output_label ~policy report =
  Lattice.Label.output_label policy report.summary.deps

(* --- rendering ----------------------------------------------------------- *)

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>%s: %s for allow(%a)" r.program (verdict_name r.verdict)
    Iset.pp r.allowed;
  fprintf ppf "@,dependencies: halt %a, control %a, fault %a" Iset.pp
    r.summary.halt_deps Iset.pp r.summary.control_deps Iset.pp
    r.summary.fault_deps;
  (match r.verdict with
  | Proved -> ()
  | Refuted w ->
      fprintf ppf "@,witness: %s condemns [%s] with %s after %d steps"
        (Dynamic.mode_name w.w_mode)
        (String.concat "; "
           (Array.to_list (Array.map Value.to_string w.w_input)))
        w.w_notice w.w_steps;
      Option.iter (fun f -> fprintf ppf "@,%a" Lint.pp_finding f) w.w_finding
  | Unknown ->
      fprintf ppf "@,no witness found: monitor at run time");
  fprintf ppf "@,residual monitor: watch %d of %d boxes" r.residual.watched_boxes
    (r.residual.watched_boxes + r.residual.skipped_boxes);
  fprintf ppf "@]"

module Json = Lint.Json

let json_of_iset s =
  Json.List (List.map (fun i -> Json.Int i) (Iset.to_list s))

let json_of_value = function
  | Value.Int n -> Json.Int n
  | v -> Json.String (Value.to_string v)

let to_json r =
  let witness =
    match r.verdict with
    | Proved | Unknown -> Json.Null
    | Refuted w ->
        Json.Obj
          [
            ( "input",
              Json.List (Array.to_list (Array.map json_of_value w.w_input)) );
            ("mode", Json.String (Dynamic.mode_name w.w_mode));
            ("notice", Json.String w.w_notice);
            ("steps", Json.Int w.w_steps);
            ( "finding",
              match w.w_finding with
              | None -> Json.Null
              | Some f -> Lint.json_of_finding f );
          ]
  in
  let watched_nodes =
    List.filteri (fun i _ -> r.residual.watch.(i))
      (Array.to_list (Array.init (Array.length r.residual.watch) Fun.id))
  in
  Json.Obj
    [
      ("program", Json.String r.program);
      ("allowed", json_of_iset r.allowed);
      ("verdict", Json.String (verdict_name r.verdict));
      ( "dependencies",
        Json.Obj
          [
            ("halt", json_of_iset r.summary.halt_deps);
            ("control", json_of_iset r.summary.control_deps);
            ("fault", json_of_iset r.summary.fault_deps);
            ("all", json_of_iset r.summary.deps);
          ] );
      ("witness", witness);
      ( "residual",
        Json.Obj
          [
            ("watched", Json.Int r.residual.watched_boxes);
            ("skipped", Json.Int r.residual.skipped_boxes);
            ( "watch_nodes",
              Json.List (List.map (fun i -> Json.Int i) watched_nodes) );
          ] );
    ]

let to_json_string r = Json.render (to_json r)
