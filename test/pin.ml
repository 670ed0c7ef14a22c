(* Text rendering for the pinned-report tests. A report is rendered line
   by line, floats in exact hexadecimal notation and a latency histogram
   as its count, extremes, mean and a percentile ladder, then digested.
   Plain text (not [Marshal]) so a digest does not depend on the
   compiler's value layout; a change that moves any simulated outcome
   moves the digest. *)

let line b fmt = Printf.bprintf b (fmt ^^ "\n")

let latency b h =
  line b "latency count=%d mean=%h min=%h max=%h" (Stats.Histogram.count h)
    (Stats.Histogram.mean h) (Stats.Histogram.min_value h) (Stats.Histogram.max_value h);
  for pct = 0 to 100 do
    line b "latency p%d=%h" pct (Stats.Histogram.quantile h (float_of_int pct /. 100.))
  done

let digest render r =
  let b = Buffer.create 4096 in
  render b r;
  Digest.to_hex (Digest.string (Buffer.contents b))
