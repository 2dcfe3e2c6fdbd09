(* Remote YCSB load generator: drives a bwt_server over TCP with the same
   workload mixes, key spaces and reporting as bin/ycsb.exe, from N client
   domains each pipelining up to --pipeline requests on its own
   connection.

   Examples:
     dune exec bin/bwt_loadgen.exe -- --port 4680 --mix a --clients 4
     dune exec bin/bwt_loadgen.exe -- --port 4680 --mix e --keyspace email \
       --pipeline 32 --stats-json server-stats.json *)

open Cmdliner
module W = Workload
module Wire = Bw_server.Wire

let usage_mixes = "insert, c (read-only), a (read/update), e (scan/insert)"
let usage_spaces = "mono, rand, email, hc"

(* ------------------------------------------------------------------ *)
(* Pipelined op driving                                                *)
(* ------------------------------------------------------------------ *)

let req_of_op : string W.op -> Wire.req = function
  | W.Insert (k, v) -> Wire.Put (Wire.Insert, k, v)
  | W.Read k -> Wire.Get k
  | W.Update (k, v) -> Wire.Put (Wire.Update, k, v)
  | W.Scan (k, n) -> Wire.Scan (k, min n Wire.max_scan)

let series_of_op : string W.op -> Bw_obs.series = function
  | W.Insert _ | W.Update _ -> Bw_obs.Lat_req_put
  | W.Read _ -> Bw_obs.Lat_req_get
  | W.Scan _ -> Bw_obs.Lat_req_scan

(* Replay [ops] on [client], keeping up to [depth] requests in flight.
   With [batch] > 1 the trace is chunked into BATCH frames of up to
   [batch] sub-requests; each frame counts as one in-flight request and
   its whole-frame latency is recorded under the first op's series.
   Client-side latency (send to matching reply, including pipeline
   queueing) goes to [obs]; ERR replies — top-level or inside a BATCH
   response — are counted, not fatal. *)
let drive obs ~tid client ops ~depth ~batch =
  let timed = Bw_obs.enabled obs in
  let stamps = Queue.create () in
  let errors = ref 0 in
  let drain_one () =
    (match Bw_client.recv client with
    | Wire.Err _ -> incr errors
    | Wire.Batched rs ->
        List.iter (function Wire.Err _ -> incr errors | _ -> ()) rs
    | _ -> ());
    if timed then begin
      let series, t0 = Queue.pop stamps in
      Bw_obs.observe obs ~tid series (Bw_obs.now_ns () - t0)
    end
  in
  let submit series req =
    if Bw_client.inflight client >= depth then drain_one ();
    if timed then Queue.add (series, Bw_obs.now_ns ()) stamps;
    Bw_client.send client req
  in
  if batch = 1 then
    Array.iter (fun op -> submit (series_of_op op) (req_of_op op)) ops
  else begin
    let n = Array.length ops in
    let i = ref 0 in
    while !i < n do
      let len = min batch (n - !i) in
      let chunk = List.init len (fun j -> req_of_op ops.(!i + j)) in
      submit (series_of_op ops.(!i)) (Wire.Batch chunk);
      i := !i + len
    done
  end;
  Bw_client.flush client;
  while Bw_client.inflight client > 0 do
    drain_one ()
  done;
  !errors

(* Replay [ops] through a cluster router: synchronous routed calls (the
   router owns redirect retries, so pipelining depth does not apply).
   With [batch] > 1, runs of point ops chunk into owner-partitioned
   BATCH dispatches; scans flush the pending chunk and route on their
   own (a cross-shard scan is already multi-frame). *)
let drive_router obs ~tid router ops ~batch =
  let timed = Bw_obs.enabled obs in
  let errors = ref 0 in
  let time series f =
    let t0 = if timed then Bw_obs.now_ns () else 0 in
    (match f () with
    | () -> ()
    | exception Bw_client.Protocol_error _ -> incr errors
    | exception Bw_router.Unroutable _ -> incr errors);
    if timed then Bw_obs.observe obs ~tid series (Bw_obs.now_ns () - t0)
  in
  let one op =
    time (series_of_op op) (fun () ->
        match op with
        | W.Insert (k, v) ->
            ignore (Bw_router.put router ~mode:Wire.Insert k v : bool)
        | W.Update (k, v) ->
            ignore (Bw_router.put router ~mode:Wire.Update k v : bool)
        | W.Read k -> ignore (Bw_router.get router k : int option)
        | W.Scan (k, n) ->
            ignore
              (Bw_router.scan router k ~n:(min n Wire.max_scan)
                : (string * int) list))
  in
  if batch = 1 then Array.iter one ops
  else begin
    let pending = ref [] in
    let pn = ref 0 in
    let first_series = ref None in
    let flush () =
      if !pending <> [] then begin
        let reqs = List.rev !pending in
        let series =
          Option.value !first_series ~default:Bw_obs.Lat_req_batch
        in
        time series (fun () ->
            List.iter
              (function Wire.Err _ -> incr errors | _ -> ())
              (Bw_router.batch router reqs));
        pending := [];
        pn := 0;
        first_series := None
      end
    in
    Array.iter
      (fun op ->
        match op with
        | W.Scan _ ->
            flush ();
            one op
        | _ ->
            if !first_series = None then first_series := Some (series_of_op op);
            pending := req_of_op op :: !pending;
            incr pn;
            if !pn >= batch then flush ())
      ops;
    flush ()
  end;
  !errors

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          ((if host = "" then "127.0.0.1" else host), p)
      | _ ->
          Printf.eprintf "bwt_loadgen: bad port in %S\n" s;
          exit 2)
  | None ->
      Printf.eprintf "bwt_loadgen: expected HOST:PORT, got %S\n" s;
      exit 2

let main host port cluster clients depth batch mix keyspace keys ops theta
    no_load stats_json metrics metrics_json =
  let mix =
    match W.mix_of_string mix with
    | Some m -> m
    | None ->
        Printf.eprintf "bwt_loadgen: unknown --mix %S (try: %s)\n" mix
          usage_mixes;
        exit 2
  in
  let space =
    match keyspace with
    | "mono" -> W.Mono_int
    | "rand" -> W.Rand_int
    | "email" -> W.Email
    | "hc" -> W.Mono_hc
    | s ->
        Printf.eprintf "bwt_loadgen: unknown --keyspace %S (try: %s)\n" s
          usage_spaces;
        exit 2
  in
  if clients < 1 || depth < 1 || keys < 1 || ops < 0 then begin
    Printf.eprintf
      "bwt_loadgen: --clients and --pipeline must be >= 1, --keys >= 1, \
       --ops >= 0\n";
    exit 2
  end;
  if batch < 1 || batch > Wire.max_batch then begin
    Printf.eprintf "bwt_loadgen: --batch must be in [1, %d] (got %d)\n"
      Wire.max_batch batch;
    exit 2
  end;
  (* keys travel in their binary-comparable form; the server decodes *)
  let conv : int -> string =
    let (Harness.Drivers.Key (module D)) = Harness.Drivers.of_space space in
    fun i -> D.K.Key.to_binary (D.K.of_workload space i)
  in
  let cfg = { W.default_config with num_keys = keys; num_ops = ops; theta } in
  let obs =
    if metrics || metrics_json <> None then
      Bw_obs.To (Bw_obs.create ~stripes:(clients + 1) ())
    else Bw_obs.Null
  in
  Printf.printf
    "bwt_loadgen: %s | mix: %s | keys: %s | clients: %d | pipeline: %d%s\n%!"
    (match cluster with
    | Some seeds -> "cluster " ^ seeds
    | None -> Printf.sprintf "%s:%d" host port)
    (Format.asprintf "%a" W.pp_mix mix)
    (Format.asprintf "%a" W.pp_key_space space)
    clients depth
    (if batch > 1 then Printf.sprintf " | batch: %d" batch else "");
  let use =
    match cluster with
    | None -> (
        try
          `Direct (Array.init clients (fun _ -> Bw_client.connect ~host ~port ()))
        with Unix.Unix_error (e, _, _) ->
          Printf.eprintf "bwt_loadgen: cannot connect to %s:%d: %s\n" host port
            (Unix.error_message e);
          exit 1)
    | Some seeds -> (
        let seeds = List.map parse_host_port (String.split_on_char ',' seeds) in
        try
          `Cluster
            (Array.init clients (fun tid ->
                 Bw_router.connect ~obs ~tid ~seeds ()))
        with Bw_router.Unroutable m | Failure m ->
          Printf.eprintf "bwt_loadgen: cannot join cluster: %s\n" m;
          exit 1)
  in
  let errors = Atomic.make 0 in
  let run_clients traces =
    Harness.Runner.run_phase ~nthreads:clients (fun tid ->
        let e =
          match use with
          | `Direct conns -> drive obs ~tid conns.(tid) traces.(tid) ~depth ~batch
          | `Cluster routers ->
              drive_router obs ~tid routers.(tid) traces.(tid) ~batch
        in
        ignore (Atomic.fetch_and_add errors e))
  in
  (* load phase: stripe the key set across client connections *)
  if not no_load then begin
    let trace = W.load_trace cfg space conv in
    let traces =
      Array.init clients (fun tid ->
          let mine = ref [] in
          Array.iteri
            (fun i (k, v) ->
              if i mod clients = tid then mine := W.Insert (k, v) :: !mine)
            trace;
          Array.of_list (List.rev !mine))
    in
    let seconds = run_clients traces in
    let n = Array.length trace in
    Printf.printf "load : %8d keys in %6.2fs = %7.3f Mops/s\n%!" n seconds
      (Bw_util.Stats.throughput_mops ~ops:n ~seconds)
  end;
  (match mix with
  | W.Insert_only -> ()
  | _ ->
      let traces =
        Array.init clients (fun tid ->
            W.ops_trace cfg space mix ~tid ~nthreads:clients conv)
      in
      let seconds = run_clients traces in
      let n = Array.fold_left (fun a t -> a + Array.length t) 0 traces in
      Printf.printf "run  : %8d ops  in %6.2fs = %7.3f Mops/s\n%!" n seconds
        (Bw_util.Stats.throughput_mops ~ops:n ~seconds));
  if Atomic.get errors > 0 then
    Printf.printf "errors: %d ERR replies\n%!" (Atomic.get errors);
  Option.iter
    (fun file ->
      let json =
        match use with
        | `Direct conns -> Bw_client.stats conns.(0)
        | `Cluster routers ->
            (* the merged fleet snapshot, with the loadgen's own
               registry folded in (it holds router_redirects) *)
            let extra =
              match obs with
              | Bw_obs.To reg ->
                  [ ("loadgen", Bw_obs.snapshot_to_string (Bw_obs.snapshot reg)) ]
              | Bw_obs.Null -> []
            in
            Bw_router.fleet_stats_json ~extra routers.(0)
      in
      let oc = open_out file in
      output_string oc json;
      output_char oc '\n';
      close_out oc;
      Printf.printf "stats: wrote server snapshot to %s\n%!" file)
    stats_json;
  (match use with
  | `Direct conns -> Array.iter Bw_client.close conns
  | `Cluster routers -> Array.iter Bw_router.close routers);
  (match obs with
  | Bw_obs.Null -> ()
  | Bw_obs.To reg ->
      let sn = Bw_obs.snapshot reg in
      if metrics then Format.printf "%a@." Bw_obs.pp_snapshot sn;
      Option.iter
        (fun file ->
          let oc = open_out file in
          output_string oc (Bw_obs.snapshot_to_string sn);
          output_char oc '\n';
          close_out oc;
          Printf.printf "metrics: wrote %s\n%!" file)
        metrics_json);
  if Atomic.get errors > 0 then exit 3

let cmd =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int 4680 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let cluster =
    Arg.(value & opt (some string) None
         & info [ "cluster" ] ~docv:"SEEDS"
             ~doc:"Drive a multi-node cluster instead of one server: \
                   comma-separated HOST:PORT seed endpoints. Each client \
                   domain runs its own routing table fetched from the \
                   seeds; EWRONGSHARD redirects refetch and retry. \
                   --pipeline does not apply (routed calls are \
                   synchronous); --host/--port are ignored.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "c"; "clients" ] ~docv:"N"
             ~doc:"Client domains, one connection each.")
  in
  let depth =
    Arg.(value & opt int 16
         & info [ "pipeline" ] ~docv:"D"
             ~doc:"Requests kept in flight per connection.")
  in
  let batch =
    Arg.(value & opt int 1
         & info [ "b"; "batch" ] ~docv:"N"
             ~doc:"Pack $(docv) operations per BATCH frame (1 = one \
                   request per frame).")
  in
  let mix =
    Arg.(value & opt string "a"
         & info [ "m"; "mix" ] ~docv:"MIX"
             ~doc:(Printf.sprintf "Workload mix: %s." usage_mixes))
  in
  let keyspace =
    Arg.(value & opt string "rand"
         & info [ "k"; "keyspace" ] ~docv:"SPACE"
             ~doc:(Printf.sprintf "Key space: %s." usage_spaces))
  in
  let keys =
    Arg.(value & opt int 100_000
         & info [ "keys" ] ~docv:"N" ~doc:"Keys loaded before measuring.")
  in
  let ops =
    Arg.(value & opt int 200_000
         & info [ "ops" ] ~docv:"N" ~doc:"Operations in the measured phase.")
  in
  let theta =
    Arg.(value & opt float 0.99
         & info [ "theta" ] ~docv:"F" ~doc:"Zipfian skew in (0,1).")
  in
  let no_load =
    Arg.(value & flag
         & info [ "no-load" ]
             ~doc:"Skip the load phase (the server is already populated).")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"Fetch the server's STATS snapshot afterwards and write \
                   it to $(docv).")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Record client-side request latencies and print a \
                   snapshot.")
  in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Record client-side request latencies and write a JSON \
                   snapshot to $(docv).")
  in
  let term =
    Term.(
      const main $ host $ port $ cluster $ clients $ depth $ batch $ mix
      $ keyspace $ keys $ ops $ theta $ no_load $ stats_json $ metrics
      $ metrics_json)
  in
  Cmd.v
    (Cmd.info "bwt_loadgen"
       ~doc:"YCSB-style load generator for bwt_server"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Replays the paper's YCSB mixes against a running bwt_server \
              over TCP, one pipelined connection per client domain, and \
              reports throughput in the same format as bin/ycsb.exe.";
         ])
    term

let () = exit (Cmd.eval cmd)
