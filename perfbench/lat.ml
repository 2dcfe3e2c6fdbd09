(* Latency histograms and the clocks behind them.

   Bw_obs.Histo's 12.5%-wide buckets report the bucket bound, so two runs
   would often print the same p50. This histogram keeps 64 sub-buckets per
   power of two (under 1.6% wide, exact below 128 ns) and interpolates
   inside the bucket holding the rank, so a percentile moves with the data.
   One histogram belongs to one domain; [merge] combines them after the
   domains have joined. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Process user + system CPU seconds, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sub_bits = 6
let sub = 1 lsl sub_bits
let n_buckets = sub * 40

type t = { counts : int array; mutable n : int; mutable sum : int }

let create () = { counts = Array.make n_buckets 0; n = 0; sum = 0 }

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

let bucket v =
  if v < 2 * sub then v
  else
    let e = msb v 0 in
    min (n_buckets - 1)
      ((sub * (e - sub_bits + 1)) + ((v lsr (e - sub_bits)) land (sub - 1)))

let bucket_lo b =
  if b < 2 * sub then b
  else
    let e = (b / sub) + sub_bits - 1 in
    (sub + (b land (sub - 1))) lsl (e - sub_bits)

let bucket_width b =
  if b < 2 * sub then 1 else 1 lsl ((b / sub) - 1)

let add t v =
  let v = if v < 0 then 0 else v in
  let b = bucket v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.n <- 0;
  t.sum <- 0

let count t = t.n
let sum t = t.sum

let merge_into ~dst t =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) t.counts;
  dst.n <- dst.n + t.n;
  dst.sum <- dst.sum + t.sum

let merge ts =
  let dst = create () in
  List.iter (fun t -> merge_into ~dst t) ts;
  dst

(* Value at quantile [q], linear inside the bucket that holds rank q*n;
   0 when empty. *)
let quantile t q =
  if t.n = 0 then 0.
  else begin
    let rank = q *. float_of_int t.n in
    let rec go b cum =
      let c = t.counts.(b) in
      if b = n_buckets - 1 || float_of_int (cum + c) >= rank then
        let inside =
          if c = 0 then 0. else (rank -. float_of_int cum) /. float_of_int c
        in
        float_of_int (bucket_lo b)
        +. (Float.max 0. (Float.min 1. inside) *. float_of_int (bucket_width b))
      else go (b + 1) (cum + c)
    in
    go 0 0
  end

(* The reported tail: p99 needs at least 10 samples beyond it. *)
let tail_q = 0.99
let min_tail_samples = 1000
