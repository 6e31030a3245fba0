module Program = Secpol_core.Program
module Value = Secpol_core.Value

let default_fuel = 100_000
let violation_prefix = "violation:"
let monitor_fault_prefix = "monitor fault: "

let finish result steps = { Program.result; steps }

let arity_fault what name ~expected ~got =
  finish
    (Program.Fault
       (Printf.sprintf "%s %s: expected %d inputs, got %d" what name expected
          got))
    0

(* What an injected fault does to a plain (un-monitored) run. The plain
   interpreter has no redundant state, so Corrupt is reported as a
   detected corruption fault; Starve collapses the remaining fuel. *)
let plain_fault = function
  | Hook.Crash m -> finish (Program.Fault (monitor_fault_prefix ^ m))
  | Hook.Corrupt ->
      finish (Program.Fault (monitor_fault_prefix ^ "state corruption detected"))
  | Hook.Starve -> finish Program.Diverged

(* [max_reg] is computed once, when the runner is applied to the graph. *)
let run_graph ?(fuel = default_fuel) ?(cost = Expr.Uniform)
    ?(hook = Hook.none) ?(emit = Emit.none) g =
  let max_reg = Graph.max_reg g in
  fun inputs ->
    if Array.length inputs <> g.Graph.arity then
      arity_fault "run_graph" g.Graph.name ~expected:g.Graph.arity
        ~got:(Array.length inputs)
    else
      match Store.of_values ~inputs ~max_reg with
      | exception Invalid_argument m -> finish (Program.Fault m) 0
      | store -> (
          let env = Store.lookup store in
          let last_steps = ref 0 in
          let rec go node steps =
            last_steps := steps;
            match g.Graph.nodes.(node) with
            | Graph.Start next -> go next steps
            | Graph.Assign (v, e, next) -> (
                match hook ~step:steps with
                | Some a -> plain_fault a steps
                | None ->
                    if steps >= fuel then finish Program.Diverged steps
                    else begin
                      let value, extra = Expr.eval_cost cost env e in
                      Store.set store v value;
                      Emit.box emit ~step:steps ~node;
                      Emit.assign emit ~step:steps ~node ~var:v ~value;
                      go next (steps + 1 + extra)
                    end)
            | Graph.Decision (p, if_true, if_false) -> (
                match hook ~step:steps with
                | Some a -> plain_fault a steps
                | None ->
                    if steps >= fuel then finish Program.Diverged steps
                    else begin
                      let taken, extra = Expr.eval_pred_cost cost env p in
                      Emit.box emit ~step:steps ~node;
                      go (if taken then if_true else if_false) (steps + 1 + extra)
                    end)
            | Graph.Halt -> (
                match hook ~step:steps with
                | Some a -> plain_fault a steps
                | None ->
                    Emit.box emit ~step:steps ~node;
                    finish (Program.Value (Value.Int (Store.output store))) steps)
            | Graph.Halt_violation notice ->
                Emit.box emit ~step:steps ~node;
                finish (Program.Fault (violation_prefix ^ notice)) steps
          in
          try go g.Graph.entry 0
          with Expr.Runtime_fault e ->
            finish (Program.Fault (Expr.error_message e)) !last_steps)

let run_ast ?(fuel = default_fuel) ?(cost = Expr.Uniform) ?(hook = Hook.none)
    (p : Ast.prog) inputs =
  if Array.length inputs <> p.Ast.arity then
    arity_fault "run_ast" p.Ast.name ~expected:p.Ast.arity
      ~got:(Array.length inputs)
  else
    match Store.of_values ~inputs ~max_reg:0 with
    | exception Invalid_argument m -> finish (Program.Fault m) 0
    | store -> (
        let env = Store.lookup store in
        let exception Out_of_fuel of int in
        let exception Injected of Hook.action * int in
        let steps = ref 0 in
        let tick extra =
          (match hook ~step:!steps with
          | Some a -> raise (Injected (a, !steps))
          | None -> ());
          steps := !steps + 1 + extra;
          if !steps > fuel then raise (Out_of_fuel !steps)
        in
        let rec exec = function
          | Ast.Skip -> ()
          | Ast.Assign (v, e) ->
              let value, extra = Expr.eval_cost cost env e in
              tick extra;
              Store.set store v value
          | Ast.Seq l -> List.iter exec l
          | Ast.If (p, a, b) ->
              let taken, extra = Expr.eval_pred_cost cost env p in
              tick extra;
              if taken then exec a else exec b
          | Ast.While (p, body) as loop ->
              let taken, extra = Expr.eval_pred_cost cost env p in
              tick extra;
              if taken then begin
                exec body;
                exec loop
              end
          | Ast.At (_, s) -> exec s
        in
        match exec p.Ast.body with
        | () -> finish (Program.Value (Value.Int (Store.output store))) !steps
        | exception Out_of_fuel s -> finish Program.Diverged s
        | exception Injected (a, s) -> plain_fault a s
        | exception Expr.Runtime_fault e ->
            finish (Program.Fault (Expr.error_message e)) !steps)

let graph_program ?fuel ?cost ?hook ?emit g =
  Program.make ~name:g.Graph.name ~arity:g.Graph.arity
    (run_graph ?fuel ?cost ?hook ?emit g)

let reply_of_outcome (o : Program.outcome) =
  let module Mechanism = Secpol_core.Mechanism in
  let response =
    match o.Program.result with
    | Program.Value v -> Mechanism.Granted v
    | Program.Diverged -> Mechanism.Hung
    | Program.Fault m ->
        let p = violation_prefix in
        if String.length m >= String.length p && String.sub m 0 (String.length p) = p
        then
          Mechanism.Denied
            (String.sub m (String.length p) (String.length m - String.length p))
        else Mechanism.Failed m
  in
  { Mechanism.response; steps = o.Program.steps }

let graph_mechanism ?fuel ?hook ?emit g =
  let run = run_graph ?fuel ?hook ?emit g in
  Secpol_core.Mechanism.make ~name:g.Graph.name ~arity:g.Graph.arity (fun a ->
      reply_of_outcome (run a))

let ast_program ?fuel ?cost ?hook (p : Ast.prog) =
  Program.make ~name:p.Ast.name ~arity:p.Ast.arity (run_ast ?fuel ?cost ?hook p)
