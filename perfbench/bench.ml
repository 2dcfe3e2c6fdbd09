(* perfbench: one workload, one seed, one run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--dir DIR]

   --trace 0 sets the stack up three times (setup_s is their median), then
   warms up, settles and measures for S seconds, and prints the end-to-end
   metrics. --trace 1 runs the workload once untraced and once with spans,
   Bw_obs registries and Counters on (on read-zipf, then its batch pass
   too), and prints the per-layer metrics.
   Every answer is checked; the last line of stdout is one JSON object
   with the keys correct, attempted, failed and metrics. *)

open Common
module Json = Bw_obs.Json

open Workloads

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_ops_s", "1/s");
    ("read_p50_us", "us");
    ("op_p50_us", "us");
    ("cpu_ns_per_op", "ns");
    ("mem_bytes_per_key", "B");
  ]

let per_layer =
  [
    ("bwtree.leaf_cache_hit_ratio", "ratio");
    ("bwtree.leaf_cache_stale_ratio", "ratio");
    ("bwtree.probe_cmps_per_op", "count");
    ("bwtree.depth", "count");
    ("bwtree.leaf_chain_avg", "count");
    ("bwtree.restarts_per_kop", "count");
    ("bwtree.failed_cas_per_kop", "count");
    ("bwtree.consolidations_per_kop", "count");
    ("bwtree.splits", "count");
    ("bwtree.merges", "count");
    ("bwtree.gap_reuse_ratio", "ratio");
    ("bwtree.ptr_derefs_per_op", "count");
    ("bwtree.key_cmps_per_op", "count");
    ("bwtree.allocs_per_op", "count");
    ("bwtree.self_ns_p50", "ns");
    ("bwtree.self_ns_p99", "ns");
    ("epoch.pending_max", "count");
    ("epoch.reclaim_ns_p99", "ns");
    ("mapping_table.ids_allocated", "count");
    ("mapping_table.ids_free", "count");
    ("index_iface.batch_redescents_per_op", "count");
    ("index_iface.batch_ns_p50", "ns");
    ("bw_shard.self_ns_p50", "ns");
    ("bw_shard.max_share", "ratio");
    ("pagestore.commits_per_write", "count");
    ("pagestore.fsyncs_per_write", "count");
    ("pagestore.wal_bytes_per_write", "B");
    ("pagestore.self_ns_p50", "ns");
    ("pagestore.self_ns_p99", "ns");
    ("pagestore.reopen_s", "s");
    ("bw_server.self_ns_p50", "ns");
    ("bw_server.self_ns_p99", "ns");
    ("bw_server.bytes_in_per_req", "B");
    ("bw_server.bytes_out_per_req", "B");
    ("bw_server.queued_bytes_max", "B");
    ("bw_server.self_share", "ratio");
    ("bw_client.rtt_minus_server_ns_p50", "ns");
    ("bw_client.self_share", "ratio");
    ("loadgen.idle_share", "ratio");
    ("loadgen.achieved_rate", "1/s");
    ("gc.minor_words_per_op", "count");
    ("gc.minor_collections_per_kop", "count");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_ratio", "ratio");
  ]

let us x = x /. 1000.

let lat_line name (h : Lat.t) =
  if Lat.count h > 0 then
    Printf.printf "  %-14s p50 %10.3f us  p99 %10.3f us  (n=%d%s)\n" name
      (us (Lat.quantile h 0.5))
      (us (Lat.quantile h Lat.tail_q))
      (Lat.count h)
      (if Lat.count h < Lat.min_tail_samples then
         ", too few samples for p99: fewer than 10 beyond it"
       else "")

let describe w (o : outcome) =
  let p = o.phase in
  Printf.printf "workload %s: %d ops in %.3f s, %d attempted, %d failed (fail_ratio %g)\n"
    w p.ops p.secs o.attempted o.failed
    (per o.failed o.attempted);
  Printf.printf "  env %s\n"
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) o.env)));
  Printf.printf "  set-ups %s s (host slow-down factor before each: %s)\n"
    (String.concat " " (List.map (fun (t, _) -> Printf.sprintf "%.4f" t) o.setups))
    (String.concat " " (List.map (fun (_, f) -> Printf.sprintf "%.3f" f) o.setups));
  lat_line "read" p.read;
  lat_line "write" p.write;
  lat_line "scan" p.scan;
  lat_line "all ops" p.all;
  let row name f =
    Printf.printf "  per 1 s slice, %s: %s\n" name
      (String.concat " " (Array.to_list (Array.map f p.slices)))
  in
  row "ops" (fun s -> string_of_int s.s_ops);
  row "host slow-down factor" (fun s -> Printf.sprintf "%.3f" s.s_factor);
  row "op p50 us" (fun s -> Printf.sprintf "%.1f" (us (Lat.quantile s.s_all 0.5)));
  row "op p99 us" (fun s -> Printf.sprintf "%.1f" (us (Lat.quantile s.s_all Lat.tail_q)))

(* Each figure but memory is given at the reference host speed (see
   Common.Host), unless [raw], and each but set-up time and memory is a
   median over the 1 s slices of the measured phase. *)
let e2e ?(raw = false) (o : outcome) =
  let at f = if raw then 1. else f in
  let med g = median (Array.to_list (Array.map g o.phase.slices)) in
  [
    ("setup_s", median (List.map (fun (t, f) -> t /. at f) o.setups));
    ( "throughput_ops_s",
      med (fun s -> float_of_int s.s_ops /. s.s_busy *. at s.s_factor) );
    ("read_p50_us", med (fun s -> us (Lat.quantile s.s_read 0.5) /. at s.s_factor));
    ("op_p50_us", med (fun s -> us (Lat.quantile s.s_all 0.5) /. at s.s_factor));
    ( "cpu_ns_per_op",
      med (fun s -> s.s_cpu *. 1e9 /. float_of_int s.s_ops /. at s.s_factor) );
    ( "mem_bytes_per_key",
      float_of_int (o.mem_words * (Sys.word_size / 8)) /. float_of_int o.live_keys );
  ]

let result ~correct ~attempted ~failed names values =
  let metrics =
    List.map
      (fun (n, unit) ->
        let v = match List.assoc_opt n values with Some v -> v | None -> 0. in
        (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      names
  in
  List.iter
    (fun (n, unit) ->
      Printf.printf "  metric %-38s %.6g %s\n" n
        (match List.assoc_opt n values with Some v -> v | None -> 0.)
        unit)
    names;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

let main ~workload ~seed ~seconds ~trace ~dir =
  let w =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  Stack.mkdir_p dir;
  let cfg = { seed; seconds; scale = 1.0; wrap = Fun.id; dir } in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n%!" workload seed seconds
    trace;
  if not trace then begin
    let o = run_workload cfg w ~traced:false ~setups:3 in
    describe workload o;
    List.iter (fun (n, v) -> Printf.printf "  raw %-34s %.6g\n" n v) (e2e ~raw:true o);
    result ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed end_to_end
      (e2e o)
  end
  else begin
    let base = run_workload cfg w ~traced:false ~setups:1 in
    describe workload base;
    let dump_spans name =
      let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" name seed) in
      Span.write_out path;
      Printf.printf "  spans: %d written to %s, %d dropped (buffer full)\n"
        (Span.stored ()) path (Span.dropped ())
    in
    let t = run_workload cfg w ~traced:true ~setups:1 in
    describe (workload ^ " (traced)") t;
    dump_spans workload;
    let overhead =
      (float_of_int base.phase.ops /. base.phase.secs)
      /. (float_of_int t.phase.ops /. t.phase.secs)
    in
    (* read-zipf's traced run also replays its op stream through
       exec_batch, the only pass on which the batch path's layer runs. *)
    let t =
      if workload <> "read-zipf" then t
      else begin
        let name, bw = Workloads.batch_pass in
        let b = run_workload cfg bw ~traced:true ~setups:1 in
        describe name b;
        dump_spans (workload ^ "-batch");
        let batch_layers =
          List.filter
            (fun (n, _) -> String.starts_with ~prefix:"index_iface." n)
            b.layers
        in
        {
          t with
          attempted = t.attempted + b.attempted;
          failed = t.failed + b.failed;
          layers = t.layers @ batch_layers;
        }
      end
    in
    result
      ~correct:(base.failed = 0 && t.failed = 0 && t.trace_ok)
      ~attempted:(base.attempted + t.attempted) ~failed:(base.failed + t.failed)
      per_layer
      (("trace.overhead_ratio", overhead) :: t.layers)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dir = ref ".perfbench" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
      ("--dir", Arg.Set_string dir, "DIR scratch directory (default .perfbench)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir:!dir
