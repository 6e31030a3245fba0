type key = {
  digest : string;
  tag : string;
  projection : Secpol_core.Value.t;
}

(* [Pending] slots mark a first requester off computing the verdict
   outside the lock; waiters sleep on [cond] until the slot flips to
   [Done] — or disappears, which means the computation raised and the
   next requester should try again. *)
type slot = Done of Secpol_core.Mechanism.reply | Pending

type t = {
  table : (key, slot) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create () =
  {
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    cond = Condition.create ();
    hit_count = 0;
    miss_count = 0;
  }

let find_or_compute c key f =
  Mutex.lock c.lock;
  let rec acquire () =
    match Hashtbl.find_opt c.table key with
    | Some (Done v) ->
        c.hit_count <- c.hit_count + 1;
        Mutex.unlock c.lock;
        v
    | Some Pending ->
        Condition.wait c.cond c.lock;
        acquire ()
    | None ->
        Hashtbl.replace c.table key Pending;
        Mutex.unlock c.lock;
        let v =
          try f ()
          with exn ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock c.lock;
            Hashtbl.remove c.table key;
            Condition.broadcast c.cond;
            Mutex.unlock c.lock;
            Printexc.raise_with_backtrace exn bt
        in
        Mutex.lock c.lock;
        Hashtbl.replace c.table key (Done v);
        c.miss_count <- c.miss_count + 1;
        Condition.broadcast c.cond;
        Mutex.unlock c.lock;
        v
  in
  acquire ()

let hits c =
  Mutex.lock c.lock;
  let n = c.hit_count in
  Mutex.unlock c.lock;
  n

let misses c =
  Mutex.lock c.lock;
  let n = c.miss_count in
  Mutex.unlock c.lock;
  n

let size c =
  Mutex.lock c.lock;
  let n = Hashtbl.length c.table in
  Mutex.unlock c.lock;
  n
