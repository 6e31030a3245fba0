(* What one workload run hands back to Main. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type t = {
  attempted : int;
  failed : int;  (** shed, hung or raising operations *)
  correct : bool;  (** every output matched its oracle *)
  problems : string list;  (** the first few mismatches, for the log *)
  metrics : metric list;
      (** end-to-end metrics untraced, per-layer metrics traced *)
  figures : metric list;
      (** the same results under their workload-specific names, printed
          for the reader, not part of the machine-read result *)
  samples : (string * int) list;  (** sample counts per phase *)
}

let show_reply (r : Secpol_core.Mechanism.reply) =
  let open Secpol_core.Mechanism in
  let resp =
    match r.response with
    | Granted v -> "granted " ^ Secpol_core.Value.to_string v
    | Denied n -> "denied " ^ n
    | Hung -> "hung"
    | Failed m -> "failed " ^ m
  in
  Printf.sprintf "%s in %d steps" resp r.steps

(* Correctness failures: keep the first few for the log, count all. *)
type problems = { mutable count : int; mutable first : string list }

let problems () = { count = 0; first = [] }

let problem p msg =
  p.count <- p.count + 1;
  if p.count <= 5 then p.first <- p.first @ [ msg ]
