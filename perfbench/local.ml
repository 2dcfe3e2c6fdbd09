(* The in-process workloads: the Index_iface driver of one OpenBw-Tree,
   driven closed-loop by one worker domain.

   read-zipf       YCSB C, one read per driver call
   write-churn     Zipfian updates and reads over the loaded keys, plus a
                   FIFO window of ascending keys inserted at its right edge
                   and removed at its left

   and read-zipf's batch pass (Read_zipf_b256): the same keys, seed and op
   stream in exec_batch calls of 256, run by read-zipf's traced run. *)

open Common
open Index_iface

(* One worker domain runs the operations: on a 2-vCPU shared host a second
   worker, the epoch advancer and the runtime's stop-the-world minor
   collections measured the scheduler more than the tree. The key set is
   loaded by two domains. *)
let domains = 1
let load_domains = 2
let base_keys = 1_000_000
let stream_len = 1 lsl 20
let batch = 256
let warm_ops = 200_000
let check_tid = domains

(* The seed picks which keys are loaded as well as the op stream. *)
let key_of cfg i = Workload.Keys.rand_int ((cfg.seed lsl 24) + i)

(* Each domain's Zipfian (theta 0.99, scrambled) draw of loaded keys. *)
let zipf_stream cfg keys ~tid =
  let z = Bw_util.Zipf.create ~theta:0.99 ~n:(Array.length keys) () in
  let rng = Bw_util.Rng.create ~seed:(Int64.of_int ((cfg.seed * 7919) + tid + 1)) in
  Array.init (scaled cfg stream_len) (fun _ ->
      keys.(Bw_util.Zipf.sample_scrambled z rng))

(* Run [work tid] for every tid: tid 0 on the calling domain, the others
   on spawned domains, so no domain beyond the workers runs. *)
let on_domains ?(n = domains) work =
  let ds = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  Fun.protect ~finally:(fun () -> Array.iter Domain.join ds) (fun () -> work 0)

(* Load [keys] from [load_domains] domains, interleaved. Returns failed
   inserts. *)
let load (d : int driver) keys =
  let bad = Atomic.make 0 in
  on_domains ~n:load_domains (fun tid ->
      let i = ref tid in
      while !i < Array.length keys do
        let k = keys.(!i) in
        if not (d.insert ~tid k (Oracle.loaded k)) then Atomic.incr bad;
        i := !i + load_domains
      done;
      d.thread_done ~tid);
  Atomic.get bad

(* One domain's progress through its op stream. *)
type dom = {
  mutable sl : Slices.t;
  mutable n : int;
  mutable bad : int;
  mutable pos : int;
}

let new_dom () = { sl = Slices.create ~seconds:1.; n = 0; bad = 0; pos = 0 }

(* Time [f], charging [ops] operations to the slice it started in. *)
let timed st ?(ops = 1) ~write f =
  let t0 = Lat.now_ns () in
  let r = f () in
  let t1 = Lat.now_ns () in
  let s = st.sl in
  let i = Slices.slot s t0 in
  Lat.add (if write then s.wr.(i) else s.rd.(i)) (t1 - t0);
  s.cnt.(i) <- s.cnt.(i) + ops;
  st.n <- st.n + ops;
  r

(* Step every domain through [step]: first a warm-up slice of [warm_ops]
   per domain, untimed, after which [warmed] runs with the workers
   stopped, then [settle] and the measured phase of [cfg.seconds]. *)
let warm_and_measure cfg ~(step : int -> dom -> unit) ~(dur : int -> unit)
    ?(warmed = ignore) ?(before = ignore) ?(after = ignore) ?(sample = ignore) () =
  let doms = Array.init domains (fun _ -> new_dom ()) in
  let loop ?(sample = ignore) until =
    on_domains (fun tid ->
        let st = doms.(tid) in
        let go = ref true in
        while !go do
          for _ = 1 to 64 do
            step tid st
          done;
          if tid = 0 then sample ();
          go := until st
        done;
        dur tid)
  in
  let warm = scaled cfg warm_ops in
  loop (fun st -> st.n < warm);
  let attempted_warm = Array.fold_left (fun a st -> a + st.n) 0 doms in
  warmed ();
  Array.iter
    (fun st ->
      st.sl <- Slices.create ~seconds:cfg.seconds;
      st.n <- 0)
    doms;
  let host = Host.create doms.(0).sl in
  settle ();
  before ();
  let g0 = Gc.quick_stat () and c0 = Lat.cpu_s () and t0 = Lat.now_ns () in
  Array.iter (fun st -> st.sl.base <- t0) doms;
  let marks = Cpu_marks.create doms.(0).sl in
  let deadline = t0 + int_of_float (cfg.seconds *. 1e9) in
  loop
    ~sample:(fun () ->
      let now = Lat.now_ns () in
      Cpu_marks.sample marks doms.(0).sl now;
      Host.sample host doms.(0).sl now;
      sample ())
    (fun _ -> Lat.now_ns () < deadline);
  let t1 = Lat.now_ns () and c1 = Lat.cpu_s () in
  Cpu_marks.finish marks;
  let g1 = Gc.quick_stat () in
  after ();
  let phase =
    phase_of
      (Slices.merge (Array.to_list (Array.map (fun st -> st.sl) doms)))
      marks host
      ~secs:(float_of_int (t1 - t0) /. 1e9)
      ~cpu:(c1 -. c0) ~gc:(g0, g1)
  in
  (phase, attempted_warm, Array.fold_left (fun a st -> a + st.bad) 0 doms)

(* ---- the workloads --------------------------------------------------- *)

type kind = Read_zipf | Read_zipf_b256 | Write_churn

(* write-churn's window: each domain keeps a FIFO of the keys it inserted,
   drawn from one shared ascending counter below every loaded key, so
   every domain inserts at the same right edge. *)
let window_base = -(1 lsl 40)
let window_per_domain = 16_384

(* The window's keys come from a fixed range, swept again and again: as
   the window moves through it, splits at its head and merges at its tail
   keep going, but the structure it leaves behind reaches a steady state
   instead of growing with the operations done (throughput fell by a
   fifth within a 20 s run over an unbounded range), so a run's figures
   do not depend on how many operations it managed. *)
let window_span = 4 * domains * window_per_domain

type churn = {
  logs : Oracle.Log.t array;
  fifos : int Queue.t array;
  next : int Atomic.t;
}

(* Per-domain op kinds for write-churn: 50% update, 20% read, 15% window
   insert, 15% window remove, with inserts and removes made equal so the
   live key count returns to its start on every pass over the stream. *)
let churn_kinds cfg ~tid =
  let rng = Bw_util.Rng.create ~seed:(Int64.of_int ((cfg.seed * 104_729) + tid)) in
  let n = scaled cfg stream_len in
  let k =
    Bytes.init n (fun _ ->
        let r = Bw_util.Rng.next_int rng 100 in
        Char.chr (if r < 50 then 0 else if r < 70 then 1 else if r < 85 then 2 else 3))
  in
  let count c = Bytes.fold_left (fun a x -> if x = c then a + 1 else a) 0 k in
  (* the surplus side gives its excess to updates *)
  let surplus = ref (count '\002' - count '\003') in
  let c = if !surplus > 0 then '\002' else '\003' in
  surplus := abs !surplus;
  while !surplus > 0 do
    let i = Bw_util.Rng.next_int rng n in
    if Bytes.get k i = c then begin
      Bytes.set k i '\000';
      decr surplus
    end
  done;
  k

let window_insert ch (d : int driver) ~tid (st : dom) =
  let k = window_base + (Atomic.fetch_and_add ch.next 1 mod window_span) in
  if timed st ~write:true (fun () -> d.insert ~tid k (Oracle.loaded k)) then
    Queue.add k ch.fifos.(tid)
  else st.bad <- st.bad + 1

let churn_step ch (d : int driver) kinds streams tid (st : dom) =
  let kinds = kinds.(tid) and keys = streams.(tid) in
  let i = st.pos in
  st.pos <- (if i + 1 = Array.length keys then 0 else i + 1);
  match Bytes.unsafe_get kinds i with
  | '\000' ->
      let k = keys.(i) in
      let seq = Oracle.Log.append ch.logs.(tid) k in
      let v = Oracle.encode ~writer:tid ~seq in
      if not (timed st ~write:true (fun () -> d.update ~tid k v)) then
        st.bad <- st.bad + 1
  | '\001' -> (
      let k = keys.(i) in
      match timed st ~write:false (fun () -> d.read ~tid k) with
      | Some v when Oracle.valid_value ch.logs k v -> ()
      | _ -> st.bad <- st.bad + 1)
  | '\002' -> window_insert ch d ~tid st
  | _ ->
      if Queue.is_empty ch.fifos.(tid) then window_insert ch d ~tid st
      else
        let k = Queue.pop ch.fifos.(tid) in
        if not (timed st ~write:true (fun () -> d.remove ~tid k)) then
          st.bad <- st.bad + 1

(* After write-churn: one full scan must be sorted, duplicate-free, hold
   exactly the loaded keys plus the live window, and give each key the
   last value one of its writers wrote. Returns the failures found. *)
let churn_final_check ch (d : int driver) ~loaded_keys =
  let last = Oracle.last_writes ch.logs in
  let window = Hashtbl.create 65_536 in
  Array.iter (Queue.iter (fun k -> Hashtbl.replace window k ())) ch.fifos;
  let bad = ref 0 and count = ref 0 and prev = ref min_int in
  let visited =
    d.scan ~tid:check_tid min_int ~n:max_int (fun k v ->
        incr count;
        if !count > 1 && k <= !prev then incr bad;
        prev := k;
        let ok =
          if k < 0 then Hashtbl.mem window k && v = Oracle.loaded k
          else Oracle.final_value_ok last k v
        in
        if not ok then incr bad)
  in
  d.thread_done ~tid:check_tid;
  let expected = loaded_keys + Hashtbl.length window in
  !bad + abs (visited - expected) + abs (!count - visited)

let set_up cfg ~traced keys ~extra =
  time (fun () ->
      let l = Stack.open_local ~traced ~wrap:cfg.wrap () in
      let bad = load l.driver keys in
      let bad = bad + extra l in
      (l, bad))

let run_once cfg kind ~traced ~setups =
  let keys = Array.init (scaled cfg base_keys) (key_of cfg) in
  let streams = Array.init domains (fun tid -> zipf_stream cfg keys ~tid) in
  let ch =
    {
      logs = Array.init domains (fun _ -> Oracle.Log.create ());
      fifos = Array.init domains (fun _ -> Queue.create ());
      next = Atomic.make 0;
    }
  in
  let window_fill (l : Stack.local) =
    if kind <> Write_churn then 0
    else begin
      Array.iter Queue.clear ch.fifos;
      Atomic.set ch.next 0;
      let bad = Atomic.make 0 in
      on_domains (fun tid ->
          let st = new_dom () in
          for _ = 1 to scaled cfg window_per_domain do
            window_insert ch l.driver ~tid st
          done;
          l.driver.thread_done ~tid;
          ignore (Atomic.fetch_and_add bad st.bad : int));
      Atomic.get bad
    end
  in
  let batches =
    if kind <> Read_zipf_b256 then [||]
    else
      Array.map
        (fun s -> Array.init (Array.length s / batch) (fun b ->
             Array.init batch (fun j -> Bop_read s.((b * batch) + j))))
        streams
  in
  let kinds =
    if kind = Write_churn then Array.init domains (fun tid -> churn_kinds cfg ~tid)
    else [||]
  in
  (* set up [setups] times; the last stack is the one measured *)
  let rec go n acc bad =
    settle ();
    let f = Host.factor_now () in
    let (l, b), s = set_up cfg ~traced keys ~extra:window_fill in
    let s = (s, f) in
    if n > 1 then begin
      Stack.close_local l;
      go (n - 1) (s :: acc) (bad + b)
    end
    else (l, List.rev (s :: acc), bad + b)
  in
  let l, setup_times, setup_bad = go setups [] 0 in
  let d = l.driver in
  let step =
    match kind with
    | Read_zipf ->
        fun tid (st : dom) ->
          let keys = streams.(tid) in
          let i = st.pos in
          st.pos <- (if i + 1 = Array.length keys then 0 else i + 1);
          let k = keys.(i) in
          (match timed st ~write:false (fun () -> d.read ~tid k) with
          | Some v when v = Oracle.loaded k -> ()
          | _ -> st.bad <- st.bad + 1)
    | Read_zipf_b256 ->
        fun tid (st : dom) ->
          let bs = batches.(tid) in
          let i = st.pos in
          st.pos <- (if i + 1 = Array.length bs then 0 else i + 1);
          let ops = bs.(i) in
          let res =
            timed st ~ops:batch ~write:false (fun () ->
                if traced then
                  Span.with_span Span.Batch (fun () -> exec_batch d ~tid ops)
                else exec_batch d ~tid ops)
          in
          Array.iteri
            (fun j op ->
              match (op, res.(j)) with
              | Bop_read k, Bres_value (Some v) when v = Oracle.loaded k -> ()
              | _ -> st.bad <- st.bad + 1)
            ops
    | Write_churn -> churn_step ch d kinds streams
  in
  let trees = [ l.tree ] in
  let m0 = ref None and m1 = ref None and pmax = ref 0 in
  (* Memory is read once the warm-up's fixed number of operations is done,
     not after the timed phase, whose operation count (and so, on
     write-churn, how far the window has moved) follows the speed. *)
  let mem_words = ref 0 and live = ref 0 in
  let warmed () =
    d.stop_aux ();
    mem_words := Stack.live_words [ l.tree ] d.memory_words;
    live :=
      Array.length keys + Array.fold_left (fun a q -> a + Queue.length q) 0 ch.fifos;
    d.start_aux ()
  in
  let sample () = if traced then pmax := max !pmax (pending trees) in
  let phase, warm_attempted, run_bad =
    warm_and_measure cfg ~step
      ~dur:(fun tid -> d.thread_done ~tid)
      ~warmed
      ~before:(fun () ->
        if traced then begin
          m0 := Some (mark trees l.reg);
          begin_trace ()
        end)
      ~after:(fun () ->
        if traced then begin
          end_trace ();
          m1 := Some (mark trees l.reg)
        end)
      ~sample ()
  in
  let final_bad =
    if kind = Write_churn then churn_final_check ch d ~loaded_keys:(Array.length keys)
    else 0
  in
  let layers =
    match (!m0, !m1) with
    | Some m0, Some m1 ->
        let extra =
          if kind = Read_zipf_b256 then
            [
              ( "index_iface.batch_redescents_per_op",
                per
                  (match (m0.snap, m1.snap) with
                  | Some s0, Some s1 -> counter_delta s0 s1 Bw_obs.C_batch_redescents
                  | _ -> 0)
                  phase.ops );
              ("index_iface.batch_ns_p50", Lat.quantile (Span.dur_of Span.Batch) 0.5);
            ]
          else []
        in
        tree_layers ~trees ~m0 ~m1 ~ops:phase.ops ~pending_max:!pmax phase @ extra
    | _ -> []
  in
  Stack.close_local l;
  let attempted =
    (Array.length keys * setups) + warm_attempted + phase.ops
    + (if kind = Write_churn then 2 * scaled cfg window_per_domain * setups else 0)
  in
  {
    setups = setup_times;
    phase;
    attempted;
    failed = setup_bad + run_bad + final_bad;
    live_keys = !live;
    mem_words = !mem_words;
    layers;
    trace_ok = true;
    env =
      env_common cfg
      @ [
          ("keys", string_of_int (Array.length keys));
          ("domains", string_of_int domains);
          ("loop", "closed");
          ("ops", string_of_int phase.ops);
          ("batch", string_of_int (if kind = Read_zipf_b256 then batch else 1));
          ("fsync", "none");
        ];
  }
