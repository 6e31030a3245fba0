module Metrics = Secpol_trace.Metrics
module Expo = Secpol_trace.Expo
module Json = Secpol_staticflow.Lint.Json

let session_prefix = "server/session/"

let session_of_name name =
  if String.starts_with ~prefix:session_prefix name then
    let rest =
      String.sub name (String.length session_prefix)
        (String.length name - String.length session_prefix)
    in
    match String.index_opt rest '/' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> None
  else None

let sessions_of snap =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (name, _) ->
      match session_of_name name with
      | Some s when not (Hashtbl.mem seen s) ->
          Hashtbl.add seen s ();
          Some s
      | _ -> None)
    snap

let percentile (s : Metrics.summary) q =
  if s.Metrics.n = 0 then 0
  else begin
    let target =
      let t = int_of_float (ceil (q *. float_of_int s.Metrics.n)) in
      if t < 1 then 1 else t
    in
    let rec walk cum = function
      | [] -> s.Metrics.max
      | (upper, c) :: rest ->
          if cum + c >= target then upper else walk (cum + c) rest
    in
    walk 0 s.Metrics.buckets
  end

(* --- snapshot field access -------------------------------------------- *)

let counter snap name =
  match List.assoc_opt name snap with Some (Metrics.Counter c) -> c | _ -> 0

let gauge snap name =
  match List.assoc_opt name snap with Some (Metrics.Gauge g) -> g | _ -> 0

let hist snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Histogram s) -> Some s
  | _ -> None

(* --- rendering -------------------------------------------------------- *)

let render ?prev ?(interval = 1.0) snap =
  let delta =
    match prev with Some older -> Metrics.diff ~older snap | None -> snap
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "secpol top — requests %d  granted %d  shed %d  queue %d  conns %d  \
        breakers %d\n"
       (counter snap "server/requests")
       (counter snap "server/granted")
       (counter snap "server/shed")
       (gauge snap "server/queue-now")
       (gauge snap "server/open-conns")
       (gauge snap "server/breakers-open"));
  let rate_label = if prev = None then "TOTAL" else "RPS" in
  Buffer.add_string b
    (Printf.sprintf "%-16s %8s %9s %9s %7s %4s\n" "SESSION" rate_label "P50us"
       "P99us" "SHEDS" "BRK");
  List.iter
    (fun s ->
      let k what = session_prefix ^ s ^ "/" ^ what in
      let rate =
        let d = counter delta (k "requests") in
        match prev with
        | None -> Printf.sprintf "%d" d
        | Some _ ->
            if interval > 0. then
              Printf.sprintf "%.1f" (float_of_int d /. interval)
            else "-"
      in
      let p50, p99 =
        match hist snap (k "latency-us") with
        | Some h -> (percentile h 0.5, percentile h 0.99)
        | None -> (0, 0)
      in
      Buffer.add_string b
        (Printf.sprintf "%-16s %8s %9d %9d %7d %4s\n" s rate p50 p99
           (counter snap (k "sheds"))
           (if gauge snap (k "breaker-open") > 0 then "OPEN" else "-")))
    (sessions_of snap);
  Buffer.contents b

(* --- replay ----------------------------------------------------------- *)

let frames_of_jsonl text =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" then go acc (lineno + 1) rest
        else
          let frame =
            Result.bind (Json.parse line) Metrics.snapshot_of_json
          in
          (match frame with
          | Ok snap -> go (snap :: acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 (String.split_on_char '\n' text)

(* --- live scraping ---------------------------------------------------- *)

let rec really_write fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    really_write fd s (off + n) (len - n)
  end

let scrape address ~path =
  let connect () =
    match (address : Daemon.address) with
    | Daemon.Unix_path p ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX p);
        fd
    | Daemon.Tcp (host, port) ->
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (addr, port));
        fd
  in
  match connect () with
  | exception (Unix.Unix_error _ | Not_found | Failure _) ->
      Error
        (Printf.sprintf "cannot connect to %s" (Daemon.address_to_string address))
  | fd -> (
      let close () = try Unix.close fd with Unix.Unix_error _ -> () in
      try
        let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
        really_write fd req 0 (String.length req);
        let buf = Bytes.create 65536 in
        let out = Buffer.create 4096 in
        let rec drain () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes out buf 0 n;
              drain ()
        in
        drain ();
        close ();
        let raw = Buffer.contents out in
        let body =
          (* Headers end at the first blank line. *)
          let n = String.length raw in
          let rec find i =
            if i + 3 >= n then None
            else if
              raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
              && raw.[i + 3] = '\n'
            then Some (String.sub raw (i + 4) (n - i - 4))
            else find (i + 1)
          in
          find 0
        in
        match body with
        | None -> Error "malformed HTTP response"
        | Some body ->
            if String.length raw > 12 && String.sub raw 9 3 = "200" then Ok body
            else
              Error
                (String.trim
                   (match String.index_opt raw '\n' with
                   | Some eol -> String.sub raw 0 eol
                   | None -> raw))
      with Unix.Unix_error (e, _, _) ->
        close ();
        Error (Unix.error_message e))

let scrape_snapshot address =
  Result.bind (scrape address ~path:"/metrics") Expo.parse
