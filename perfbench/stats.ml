(* Clocks, order statistics and process counters for the benchmark. *)

(* CLOCK_MONOTONIC in nanoseconds: sub-microsecond resolution, no
   allocation, never steps backwards. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The same clock in seconds, for the engine's [~now] arguments. *)
let now_s () = float_of_int (now_ns ()) *. 1e-9

let us_of_ns ns = float_of_int ns /. 1e3
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank percentile of an ascending array; [0.] when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* Samples strictly above the nearest-rank percentile [p]. A reported
   tail percentile should leave at least ten beyond it. *)
let beyond sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let idx = max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)) in
    n - 1 - idx

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Peak resident set (VmHWM) in MiB, from /proc/self/status; [0.] where
   the file is missing. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* GC deltas over a region of fixed work: exact, repeatable counts. *)
type gc = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_since m =
  let s = gc_mark () in
  {
    minor_words = s.minor_words -. m.minor_words;
    major_collections = s.major_collections - m.major_collections;
  }
