(* Log-linear bucketing: values < 16 are exact; above, 16 sub-buckets per
   power of two. Bucket count is bounded by 16 + 59*16 for 63-bit values. *)
let n_buckets = 16 + (59 * 16)

type histogram = {
  buckets : int array;
  mutable total : int;
  mutable sum : int;  (* ns; an int so [record] never boxes a float *)
  mutable max_seen : int;
}

let histogram () =
  { buckets = Array.make n_buckets 0; total = 0; sum = 0; max_seen = 0 }

let log2 v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let bucket_of v =
  if v < 16 then v
  else begin
    let m = log2 v in
    let sub = (v lsr (m - 4)) land 15 in
    min (n_buckets - 1) (16 + ((m - 4) * 16) + sub)
  end

(* Midpoint of the value range covered by a bucket. *)
let value_of bucket =
  if bucket < 16 then float_of_int bucket
  else begin
    let b = bucket - 16 in
    let m = (b / 16) + 4 in
    let sub = b mod 16 in
    let low = (16 + sub) lsl (m - 4) in
    let width = 1 lsl (m - 4) in
    float_of_int low +. (float_of_int width /. 2.0)
  end

let record h ns =
  let ns = max 0 ns in
  let b = bucket_of ns in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum + ns;
  if ns > h.max_seen then h.max_seen <- ns

let merge hs =
  let out = histogram () in
  List.iter
    (fun h ->
      Array.iteri (fun i c -> out.buckets.(i) <- out.buckets.(i) + c) h.buckets;
      out.total <- out.total + h.total;
      out.sum <- out.sum + h.sum;
      if h.max_seen > out.max_seen then out.max_seen <- h.max_seen)
    hs;
  out

let count h = h.total

(* A bucket's midpoint can lie above every sample in it, so the result is
   clamped to the largest sample: no percentile exceeds the max. *)
let percentile h p =
  if h.total = 0 then 0.0
  else begin
    let target =
      int_of_float (ceil (p *. float_of_int h.total)) |> max 1 |> min h.total
    in
    let rec go i seen =
      if i >= n_buckets then float_of_int h.max_seen
      else
        let seen = seen + h.buckets.(i) in
        if seen >= target then Float.min (value_of i) (float_of_int h.max_seen)
        else go (i + 1) seen
    in
    go 0 0
  end

type summary = {
  count : int;
  mean_ns : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max_ns : float;
}

let summarize h =
  {
    count = h.total;
    mean_ns =
      (if h.total = 0 then 0.0
       else float_of_int h.sum /. float_of_int h.total);
    p50 = percentile h 0.50;
    p90 = percentile h 0.90;
    p99 = percentile h 0.99;
    p999 = percentile h 0.999;
    max_ns = float_of_int h.max_seen;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.0fns p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f" s.count
    s.mean_ns s.p50 s.p90 s.p99 s.p999 s.max_ns
