(* Log-linear latency histogram owned by the benchmark, so a change to the
   program's own [Latency] module cannot move the benchmark's numbers.

   Values below 2^sub_bits are counted exactly; above, every power of two
   is split into 2^sub_bits linear buckets (relative width <= 0.8%).
   Percentiles interpolate linearly inside the bucket that holds the
   requested rank, so two runs whose medians fall in the same bucket still
   report different values. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let n_buckets = (63 - sub_bits + 1) * sub

type t = {
  counts : int array;
  mutable n : int;
  mutable max : int;
}

let create () = { counts = Array.make n_buckets 0; n = 0; max = 0 }

(* Index of the highest set bit of [v] > 0. *)
let msb v =
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (v := !v lsr 32; r := !r + 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let index v =
  if v < sub then v
  else
    let e = msb v in
    ((e - sub_bits + 1) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

(* Lowest value and width of bucket [i]. *)
let bounds i =
  if i < sub then (i, 1)
  else
    let e = (i / sub) + sub_bits - 1 in
    let s = i mod sub in
    ((sub + s) lsl (e - sub_bits), 1 lsl (e - sub_bits))

let record h v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  if v > h.max then h.max <- v

let count h = h.n
let max h = h.max

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if src.max > dst.max then dst.max <- src.max

let merge hs =
  let m = create () in
  List.iter (merge_into m) hs;
  m

(* [percentile h q] for q in [0, 1]; 0.0 on an empty histogram. *)
let percentile h q =
  if h.n = 0 then 0.0
  else begin
    let target = q *. float_of_int h.n in
    let rec walk i below =
      let c = h.counts.(i) in
      if c > 0 && float_of_int (below + c) >= target then begin
        let lo, w = bounds i in
        let frac = (target -. float_of_int below) /. float_of_int c in
        Float.min (float_of_int h.max)
          (float_of_int lo +. (Float.max 0.0 frac *. float_of_int w))
      end
      else walk (i + 1) (below + c)
    in
    walk 0 0
  end

(** One histogram per fixed-length window of a measured interval, so that
    a metric can be reported as the median over windows: a burst of
    interference from outside the program then moves a few windows, not
    the result. A sample belongs to the window holding its end time. *)
module Windows = struct
  type hist = t

  let new_hist = create
  let record_hist = record
  let merge_hists = merge

  type t = {
    origin : int;
    len : int;  (** window length, ns *)
    mutable hs : hist array;
    mutable lo : int;  (** earliest sample start *)
    mutable hi : int;  (** latest sample end *)
  }

  let create ~origin ~len = { origin; len; hs = [||]; lo = max_int; hi = min_int }

  let record w ~start ~stop v =
    let i = (stop - w.origin) / w.len in
    let i = if i < 0 then 0 else i in
    if i >= Array.length w.hs then
      w.hs <-
        Array.append w.hs (Array.init (i + 1 - Array.length w.hs) (fun _ -> new_hist ()));
    record_hist w.hs.(i) v;
    if start < w.lo then w.lo <- start;
    if stop > w.hi then w.hi <- stop

  let all w = merge_hists (Array.to_list w.hs)

  (* Indices of the windows that lie wholly inside [lo, hi], over window
     sets that share origin and length, less the first: on the reference
     machine the first half second after a fresh set-up ran up to 2x
     slower than the rest, so it is warm-up, not steady state. *)
  let full_indices ~lo ~hi ws =
    match ws with
    | [] -> []
    | w0 :: _ -> (
        let n = List.fold_left (fun m w -> Int.max m (Array.length w.hs)) 0 ws in
        List.init n Fun.id
        |> List.filter (fun i ->
               w0.origin + (i * w0.len) >= lo
               && w0.origin + ((i + 1) * w0.len) <= hi)
        |> function
        | _ :: (_ :: _ as rest) -> rest
        | l -> l)

  (* The span from the earliest sample start to the latest sample end. *)
  let extent ws =
    ( List.fold_left (fun m w -> Int.min m w.lo) max_int ws,
      List.fold_left (fun m w -> Int.max m w.hi) min_int ws )

  (* Window [i] merged over the given window sets. *)
  let at ws i =
    merge_hists
      (List.filter_map
         (fun w -> if i < Array.length w.hs then Some w.hs.(i) else None)
         ws)
end
