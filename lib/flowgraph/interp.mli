(** Interpreters, with the step-count cost model.

    The cost model implements the observability postulate's notion of
    running time: one step per assignment box and one per decision box
    executed (start and halt boxes are free). The graph validator guarantees
    every cycle contains a step-consuming box, so the fuel bound makes every
    run terminate; fuel exhaustion is reported as divergence.

    Both interpreters — over flowchart graphs and directly over structured
    ASTs — use the same cost model, and the compiler introduces no extra
    boxes, so the two agree on (value, steps) pointwise.

    Both accept a fault-injection {!Hook.t} (default {!Hook.none}, which
    leaves runs bit-identical to un-hooked ones) and are {e total}: every
    failure — arity mismatch, division by zero, an out-of-range input
    variable, an injected crash — is returned as a [Fault] outcome, never
    raised. No input can crash a caller.

    The graph interpreter additionally accepts a trace emitter {!Emit.t}
    (default {!Emit.none}, same bit-identity contract as the hook): one
    [box] call per committed box plus an [assign] call per assignment,
    emitted only for boxes that actually commit (a box pre-empted by an
    injected fault or fuel exhaustion is not reported). *)

val default_fuel : int
(** 100_000 steps. *)

val run_graph :
  ?fuel:int ->
  ?cost:Expr.cost_model ->
  ?hook:Hook.t ->
  ?emit:Emit.t ->
  Graph.t ->
  Secpol_core.Value.t array ->
  Secpol_core.Program.outcome
(** Execute a flowchart. A [Halt_violation] box produces a
    [Fault] outcome tagged ["violation:<notice>"]; plain programs never
    contain one, and {!graph_mechanism} maps it back to a proper violation
    reply. The per-graph set-up is done when applied to the graph, so
    [let run = run_graph g] pays it once for any number of runs. *)

val run_ast :
  ?fuel:int ->
  ?cost:Expr.cost_model ->
  ?hook:Hook.t ->
  Ast.prog ->
  Secpol_core.Value.t array ->
  Secpol_core.Program.outcome
(** Execute a structured program directly. *)

val graph_program :
  ?fuel:int ->
  ?cost:Expr.cost_model ->
  ?hook:Hook.t ->
  ?emit:Emit.t ->
  Graph.t ->
  Secpol_core.Program.t
(** Package a flowchart as an extensional program. *)

val ast_program :
  ?fuel:int -> ?cost:Expr.cost_model -> ?hook:Hook.t -> Ast.prog -> Secpol_core.Program.t

val monitor_fault_prefix : string
(** Prefix of [Fault] messages that report an injected or detected failure
    of the machinery itself (as opposed to a fault of the interpreted
    program, like division by zero). *)

val violation_prefix : string
(** Prefix of the [Fault] message used to smuggle a [Halt_violation] notice
    through a program outcome. *)

val reply_of_outcome : Secpol_core.Program.outcome -> Secpol_core.Mechanism.reply
(** Interpret an outcome as a mechanism reply: values grant, violation
    faults (from [Halt_violation] boxes) deny with their notice, other
    faults fail, divergence hangs. *)

val graph_mechanism :
  ?fuel:int -> ?hook:Hook.t -> ?emit:Emit.t -> Graph.t -> Secpol_core.Mechanism.t
(** Package a flowchart that {e is} a mechanism (it may contain violation
    halts) as a {!Secpol_core.Mechanism.t}. *)
