(* In-memory spans around the benchmark's own calls into each layer.

   A span has a name ("layer.call"), a start and end on the monotonic
   clock, the span that caused it, and a request id shared by every span
   of one request ([-1] when a span serves many). Spans nest strictly
   (one domain, one stack), so a span's self time — its duration minus
   the part its children cover — is settled exactly when it ends and is
   accumulated per layer on the fly. The first [cap] spans are also kept
   verbatim and written out when the run ends. With tracing off, [enter]
   and [leave] test one flag and return. *)

let max_names = 64
let max_depth = 32

(* Span names are registered once, at module initialisation of the
   workloads; the layer is the prefix before the first dot. *)
let labels = Array.make max_names ""
let layer_of = Array.make max_names 0
let layer_names = Array.make max_names ""
let n_labels = ref 0
let n_layers = ref 0

let layer_id layer =
  let rec find i =
    if i = !n_layers then begin
      layer_names.(i) <- layer;
      incr n_layers;
      i
    end
    else if layer_names.(i) = layer then i
    else find (i + 1)
  in
  find 0

let name label =
  if !n_labels = max_names then invalid_arg "Spans.name: too many names";
  let id = !n_labels in
  labels.(id) <- label;
  layer_of.(id) <-
    layer_id
      (match String.index_opt label '.' with
      | Some i -> String.sub label 0 i
      | None -> label);
  incr n_labels;
  id

type t = {
  mutable on : bool;
  cap : int;
  k_name : int array;
  k_start : int array;
  k_end : int array;
  k_parent : int array;
  k_req : int array;
  k_id : int array;
  mutable kept : int;
  mutable next_id : int;
  st_id : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_req : int array;
  mutable depth : int;
  total_ns : int array;  (* by name *)
  count : int array;  (* by name *)
  self_ns : int array;  (* by layer *)
}

let create ~cap =
  let k () = Array.make cap 0 and s () = Array.make max_depth 0 in
  {
    on = false;
    cap;
    k_name = k ();
    k_start = k ();
    k_end = k ();
    k_parent = k ();
    k_req = k ();
    k_id = k ();
    kept = 0;
    next_id = 0;
    st_id = s ();
    st_name = s ();
    st_start = s ();
    st_child = s ();
    st_req = s ();
    depth = 0;
    total_ns = Array.make max_names 0;
    count = Array.make max_names 0;
    self_ns = Array.make max_names 0;
  }

(* Toggle between rounds only: the stack must be empty. *)
let set_on t b =
  if t.depth <> 0 then invalid_arg "Spans.set_on: open spans";
  t.on <- b

let enter t nm req =
  if t.on then begin
    let d = t.depth in
    t.st_id.(d) <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.st_name.(d) <- nm;
    t.st_child.(d) <- 0;
    t.st_req.(d) <- req;
    t.depth <- d + 1;
    t.st_start.(d) <- Stats.now_ns ()
  end

(* Name the request of the innermost open span once it is known (a
   decoded reply carries its request id). *)
let set_req t req = if t.on && t.depth > 0 then t.st_req.(t.depth - 1) <- req

let leave t =
  if t.on then begin
    let stop = Stats.now_ns () in
    let d = t.depth - 1 in
    t.depth <- d;
    let nm = t.st_name.(d) in
    let dur = stop - t.st_start.(d) in
    t.total_ns.(nm) <- t.total_ns.(nm) + dur;
    t.count.(nm) <- t.count.(nm) + 1;
    let l = layer_of.(nm) in
    t.self_ns.(l) <- t.self_ns.(l) + dur - t.st_child.(d);
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    if t.kept < t.cap then begin
      let k = t.kept in
      t.k_id.(k) <- t.st_id.(d);
      t.k_name.(k) <- nm;
      t.k_start.(k) <- t.st_start.(d);
      t.k_end.(k) <- stop;
      t.k_parent.(k) <- (if d > 0 then t.st_id.(d - 1) else -1);
      t.k_req.(k) <- t.st_req.(d);
      t.kept <- k + 1
    end
  end

(* Recover from an exception thrown out of open spans: drop every span
   opened since [depth] was read. *)
let depth t = t.depth
let unwind t d = t.depth <- d

let total_ns t nm = t.total_ns.(nm)
let count t nm = t.count.(nm)
let recorded t = t.next_id

(* Self time of a layer, by layer name; [0] for a layer no span used. *)
let self_ns t layer =
  let rec find i =
    if i = !n_layers then 0
    else if layer_names.(i) = layer then t.self_ns.(i)
    else find (i + 1)
  in
  find 0

(* One JSON object per kept span, in end order; times in ns from the
   first kept span's start. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 =
        let m = ref max_int in
        for k = 0 to t.kept - 1 do
          if t.k_start.(k) < !m then m := t.k_start.(k)
        done;
        !m
      in
      Printf.fprintf oc "{\"spans_recorded\":%d,\"spans_kept\":%d}\n" t.next_id
        t.kept;
      for k = 0 to t.kept - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
          t.k_id.(k) labels.(t.k_name.(k)) (t.k_start.(k) - t0)
          (t.k_end.(k) - t0) t.k_parent.(k) t.k_req.(k)
      done)
