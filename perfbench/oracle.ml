(* What a correct answer is.

   A loaded key carries [loaded k], a function of the key alone. Every
   written value names its writer (a worker domain, or a client
   connection) and that writer's sequence number, and each writer keeps a
   seq -> key log. A read is correct when it returns the key's loaded
   value or a value some writer wrote to that same key. *)

let loaded k = (k lxor 0x2545_F491) land 0xFFFF_FFFF

let written_bit = 1 lsl 52
let seq_bits = 44
let seq_mask = (1 lsl seq_bits) - 1

let encode ~writer ~seq = written_bit lor (writer lsl seq_bits) lor seq
let is_written v = v land written_bit <> 0
let writer_of v = (v lsr seq_bits) land 0xFF
let seq_of v = v land seq_mask

(* A writer's seq -> key log. Chunks are allocated once and never move,
   so a domain validating a read can look up an entry the writing domain
   appended before its write became visible. They live outside the OCaml
   heap, so the log, which grows through a run, adds nothing to the work
   of the major GC. *)
module Log = struct
  let chunk_bits = 16
  let chunk = 1 lsl chunk_bits
  let max_chunks = 4096

  type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let no_chunk : chunk = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

  type t = { chunks : chunk array; mutable len : int }

  let create () = { chunks = Array.make max_chunks no_chunk; len = 0 }

  let append t key =
    let s = t.len in
    let c = s lsr chunk_bits in
    if c >= max_chunks then failwith "Oracle.Log: too many writes";
    if Bigarray.Array1.dim t.chunks.(c) = 0 then begin
      (* filled, so a seq not yet appended finds no key *)
      let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chunk in
      Bigarray.Array1.fill a min_int;
      t.chunks.(c) <- a
    end;
    t.chunks.(c).{s land (chunk - 1)} <- key;
    t.len <- s + 1;
    s

  (* [None] for a seq the writer never appended. *)
  let find t s =
    let c = s lsr chunk_bits in
    if s < 0 || c >= max_chunks then None
    else
      let a = t.chunks.(c) in
      if Bigarray.Array1.dim a = 0 then None else Some a.{s land (chunk - 1)}

  let length t = t.len

  let iteri f t =
    for s = 0 to t.len - 1 do
      f s t.chunks.(s lsr chunk_bits).{s land (chunk - 1)}
    done
end

let valid_value (logs : Log.t array) k v =
  v = loaded k
  || is_written v
     && writer_of v < Array.length logs
     && Log.find logs.(writer_of v) (seq_of v) = Some k

(* The last seq each writer wrote to each key it touched: after a run, a
   key's value must be the last write of one of its writers (or its
   loaded value when no writer touched it). *)
let last_writes (logs : Log.t array) =
  Array.map
    (fun log ->
      let h = Hashtbl.create 65_536 in
      Log.iteri (fun s k -> Hashtbl.replace h k s) log;
      h)
    logs

let final_value_ok last k v =
  let touched = ref false and ok = ref false in
  Array.iteri
    (fun w h ->
      match Hashtbl.find_opt h k with
      | Some s ->
          touched := true;
          if v = encode ~writer:w ~seq:s then ok := true
      | None -> ())
    last;
  if !touched then !ok else v = loaded k
