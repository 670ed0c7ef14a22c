(* Buckets: value v (ns) lands in floor (log (v / 1us) / log gamma) + 1,
   with gamma = 1.04 (~2% relative error, matches the quantile
   guarantee); values under 1 us land in bucket 0. The float formula
   runs only here, once, to find each bucket's least integer member;
   recording then works on those integer edges alone, so it stays
   allocation-free and lands every value exactly where the formula
   would. *)

let gamma = 1.04
let log_gamma = log gamma
let min_ns = 1_000.0 (* 1 us: everything below lands in bucket 0 *)
let bucket_count = 700 (* gamma^700 * 1us ~ 8.4e14 ns ~ 9.7 days *)

let float_index v =
  if v < min_ns then 0
  else
    let i = int_of_float (log (v /. min_ns) /. log_gamma) + 1 in
    if i >= bucket_count then bucket_count - 1 else i

(* [edges.(i)] is the least integer v with [float_index v >= i]: start
   from the closed-form estimate, step down below the edge, then up onto
   it. [edges.(0) = 0]. *)
let edges =
  let e = Array.make bucket_count 0 in
  for i = 1 to bucket_count - 1 do
    let v = ref (int_of_float (min_ns *. (gamma ** float_of_int (i - 1)))) in
    while float_index (float_of_int !v) >= i do decr v done;
    while float_index (float_of_int !v) < i do incr v done;
    e.(i) <- !v
  done;
  e

let top_edge = edges.(bucket_count - 1)

(* floor (log2 v) for v >= 1, by halving the width at each step. *)
let[@inline] log2 v =
  let b = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin b := !b + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin b := !b + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin b := !b + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin b := !b + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin b := !b + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then b := !b + 1;
  !b

(* Between the first and the top edge, the five bits after v's leading
   one split its octave [2^k, 2^(k+1)) into 32 slices. A slice spans a
   ratio of at most 33/32, narrower than a bucket's 1.04, so it holds at
   most one edge: [slice_base] gives the bucket of the slice's least
   value, and one comparison with the next edge finishes. *)
let slice_bits = 5
let slice_mask = (1 lsl slice_bits) - 1
let k_min = log2 edges.(1)

let slice_base =
  let b = ref 0 in
  Array.init
    ((log2 top_edge - k_min + 1) lsl slice_bits)
    (fun j ->
      let k = k_min + (j lsr slice_bits) in
      let lo = ((1 lsl slice_bits) lor (j land slice_mask)) lsl (k - slice_bits) in
      while !b + 1 < bucket_count && edges.(!b + 1) <= lo do incr b done;
      !b)

let[@inline] bucket_of_ns v =
  if v < edges.(1) then 0
  else if v >= top_edge then bucket_count - 1
  else begin
    let k = log2 v in
    let b =
      Array.unsafe_get slice_base
        (((k - k_min) lsl slice_bits) lor ((v lsr (k - slice_bits)) land slice_mask))
    in
    if v >= Array.unsafe_get edges (b + 1) then b + 1 else b
  end

let num_buckets = bucket_count
let bucket_lower i = edges.(i)

(* Sum, min and max are exact integer nanoseconds: int fields keep
   [record] free of boxed-float stores, and every consumer's float view
   ([float_of_int]) equals the float the value would have been summed
   as, below 2^53 ns (104 days). *)
type t = {
  buckets : int array;
  mutable n : int;
  mutable sum_ns : int;
  mutable min_ns : int;
  mutable max_ns : int;
}

let create () =
  { buckets = Array.make bucket_count 0; n = 0; sum_ns = 0; min_ns = max_int; max_ns = min_int }

let bucket_mid_ns i =
  if i = 0 then min_ns /. 2.
  else min_ns *. (gamma ** (float_of_int i -. 0.5))

let record t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of_ns v in
  Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1);
  t.n <- t.n + 1;
  t.sum_ns <- t.sum_ns + v;
  if v < t.min_ns then t.min_ns <- v;
  if v > t.max_ns then t.max_ns <- v

let merge a b =
  let t = create () in
  Array.iteri (fun i c -> t.buckets.(i) <- c + b.buckets.(i)) a.buckets;
  t.n <- a.n + b.n;
  t.sum_ns <- a.sum_ns + b.sum_ns;
  t.min_ns <- min a.min_ns b.min_ns;
  t.max_ns <- max a.max_ns b.max_ns;
  t

let count t = t.n
let sum_ns t = t.sum_ns
let bucket t i = t.buckets.(i)
let mean t = if t.n = 0 then nan else float_of_int t.sum_ns /. float_of_int t.n /. 1e9
let min_value t = if t.n = 0 then nan else float_of_int t.min_ns /. 1e9
let max_value t = if t.n = 0 then nan else float_of_int t.max_ns /. 1e9

let quantile t q =
  assert (0. <= q && q <= 1.);
  if t.n = 0 then nan
  else begin
    let rank = q *. float_of_int t.n in
    let rec walk i acc =
      if i >= bucket_count then max_value t
      else
        let acc = acc + t.buckets.(i) in
        if float_of_int acc >= rank then
          (* Clamp the bucket estimate into the true observed range. *)
          Float.min (max_value t) (Float.max (min_value t) (bucket_mid_ns i /. 1e9))
        else walk (i + 1) acc
    in
    walk 0 0
  end

let pp_summary fmt t =
  if t.n = 0 then Format.fprintf fmt "n=0"
  else
    Format.fprintf fmt "n=%d mean=%.4fs p50=%.4fs p99=%.4fs max=%.4fs" t.n (mean t)
      (quantile t 0.5) (quantile t 0.99) (max_value t)
