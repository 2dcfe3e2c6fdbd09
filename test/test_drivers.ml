(* The driver contract over both key witnesses: every constructor the
   CLIs reach — single tree, 2-shard forest, durable store and durable
   forest across a close/reopen, binary-keyed backend, promoted follower
   — agrees with a Map oracle on the same random op stream, for int and
   for string (email) keys alike; and every CLI index name builds the
   same index under either witness. *)

open Harness
module W = Workload

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwt-test-drivers-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Pagestore.Store.rm_rf dir;
  Fun.protect ~finally:(fun () -> Pagestore.Store.rm_rf dir) (fun () -> f dir)

let display_names =
  [
    ("bw", "Bw-Tree"); ("openbw", "OpenBw-Tree"); ("skiplist", "SkipList");
    ("skiplist-inline", "SkipList-inline"); ("masstree", "Masstree");
    ("btree", "B+Tree"); ("art", "ART");
  ]

let test_index_names () =
  Alcotest.(check (list string))
    "every index has a display name" Drivers.index_names
    (List.map fst display_names);
  List.iter
    (fun (Drivers.Key (module D)) ->
      List.iter
        (fun index ->
          let d = D.index ~config:(Drivers.config_of_index index) index in
          Alcotest.(check string)
            (D.K.name ^ " " ^ index)
            (List.assoc index display_names)
            d.Runner.name)
        Drivers.index_names)
    Drivers.key_types

(* The contract cases for one witness, keyed by [space]'s workload keys. *)
let contract (type k) ((module D) : k Drivers.t) space =
  let module M = Map.Make (D.K.Key) in
  let keys = Array.init 300 (D.K.of_workload space) in
  let lowest =
    Array.fold_left
      (fun a k -> if D.K.Key.compare k a < 0 then k else a)
      keys.(0) keys
  in
  let bin = D.K.Key.to_binary and unbin = D.K.Key.of_binary in
  (* 2000 random point ops on [d] (keys through [enc]) and on the model,
     checking every result; returns the model *)
  let drive (type b) ~(enc : k -> b) (d : b Runner.driver) model =
    let rng = Bw_util.Rng.create ~seed:11L in
    let model = ref model in
    for _ = 1 to 2_000 do
      let k = keys.(Bw_util.Rng.next_int rng (Array.length keys)) in
      let v = Bw_util.Rng.next_int rng 1_000_000 in
      match Bw_util.Rng.next_int rng 4 with
      | 0 ->
          let fresh = not (M.mem k !model) in
          if fresh then model := M.add k v !model;
          Alcotest.(check bool) "insert" fresh (d.insert ~tid:0 (enc k) v)
      | 1 ->
          let present = M.mem k !model in
          if present then model := M.add k v !model;
          Alcotest.(check bool) "update" present (d.update ~tid:0 (enc k) v)
      | 2 ->
          let present = M.mem k !model in
          model := M.remove k !model;
          Alcotest.(check bool) "remove" present (d.remove ~tid:0 (enc k))
      | _ ->
          Alcotest.(check (option int))
            "read" (M.find_opt k !model)
            (d.read ~tid:0 (enc k))
    done;
    !model
  in
  (* the full scan, as binary keys in scan order, equals the model's *)
  let agrees (type b) what ~(enc : k -> b) ~(dec : b -> k)
      (d : b Runner.driver) model =
    let got = ref [] in
    ignore
      (d.scan ~tid:0 (enc lowest) ~n:(Array.length keys + 1) (fun k v ->
           got := (bin (dec k), v) :: !got)
        : int);
    Alcotest.(check (list (pair string int)))
      what
      (List.map (fun (k, v) -> (bin k, v)) (M.bindings model))
      (List.rev !got)
  in
  let direct what d =
    agrees what ~enc:Fun.id ~dec:Fun.id d (drive ~enc:Fun.id d M.empty)
  in
  let lo, hi = D.K.workload_range in
  let durable_reopen () =
    with_tmp_dir (fun dir ->
        List.iter
          (fun shards ->
            let dir = Filename.concat dir (string_of_int shards) in
            let open_ () =
              if shards = 1 then D.durable ~fsync:false ~dir ()
              else D.durable_forest ~fsync:false ?lo ?hi ~shards ~dir ()
            in
            let dur = open_ () in
            let model = drive ~enc:Fun.id dur.Drivers.dur_driver M.empty in
            dur.Drivers.dur_close ();
            let dur = open_ () in
            agrees
              (Printf.sprintf "%d shard(s) reopened" shards)
              ~enc:Fun.id ~dec:Fun.id dur.Drivers.dur_driver model;
            dur.Drivers.dur_close ())
          [ 1; 2 ])
  in
  let backend () =
    let b = D.backend (D.bwtree ()) in
    agrees "backend" ~enc:bin ~dec:unbin b (drive ~enc:bin b M.empty)
  in
  let follower () =
    let fo = Bw_replica.follower ?lo:D.K.live_lo ~shards:2 (module D) in
    let b = fo.Bw_replica.fo_backend in
    Alcotest.check_raises "read-only until promoted" Index_iface.Read_only
      (fun () -> ignore (b.insert ~tid:0 (bin keys.(0)) 1 : bool));
    (match
       fo.Bw_replica.fo_handle ~tid:0
         (Bw_server.Wire.R_promote { data_dir = None })
     with
    | Bw_server.Wire.Repl_ok _ -> ()
    | _ -> Alcotest.fail "promote refused");
    agrees "promoted follower" ~enc:bin ~dec:unbin b (drive ~enc:bin b M.empty)
  in
  let case name f = Alcotest.test_case (D.K.name ^ ": " ^ name) `Quick f in
  [
    case "single tree" (fun () -> direct "tree" (D.bwtree ()));
    case "2-shard forest" (fun () ->
        direct "forest" (D.forest ?lo ?hi ~shards:2 ()));
    case "durable close/reopen" durable_reopen;
    case "backend binary keys" backend;
    case "promoted follower" follower;
  ]

let () =
  let contract_for space =
    let (Drivers.Key d) = Drivers.of_space space in
    contract d space
  in
  Alcotest.run "drivers"
    [
      ("names", [ Alcotest.test_case "index names" `Quick test_index_names ]);
      ("contract", contract_for W.Rand_int @ contract_for W.Email);
    ]
