(* Measurement seams placed by the benchmark around the program's public
   calls: the clock, per-domain recorders, the in-memory span log, and the
   timing DICT wrapper handed to [Runner.run] and [Shard_router.Make]. *)

external now_raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (now_raw ())

(* Operation kinds, indexing every per-op array below. *)
let op_contains = 0
let op_insert = 1
let op_delete = 2

(** {2 Span log}

    A span is a name, start, end, the id of the span that caused it (0 for
    a root) and the request id it belongs to (0 outside [serve]). Spans
    are kept in flat per-domain arrays and written out when the run ends;
    a full buffer keeps no more. *)
module Spans = struct
  let names =
    [|
      "workload.worker";
      "citrus.contains";
      "citrus.insert";
      "citrus.delete";
      "workload.request";
      "workload.gen_lag";
      "server.read_call";
      "server.write_call";
      "server.apply";
    |]

  let worker = 0
  let citrus_op op = 1 + op
  let request = 4
  let gen_lag = 5
  let read_call = 6
  let write_call = 7
  let apply = 8
  let next_id = Atomic.make 1
  let fresh_id () = Atomic.fetch_and_add next_id 1

  type buf = {
    cap : int;
    id : int array;
    name : int array;
    parent : int array;
    req : int array;
    start : int array;
    stop : int array;
    mutable len : int;
  }

  let create cap =
    let a () = Array.make cap 0 in
    {
      cap;
      id = a ();
      name = a ();
      parent = a ();
      req = a ();
      start = a ();
      stop = a ();
      len = 0;
    }

  let push b ~id ~name ~parent ~req ~start ~stop =
    if b.len < b.cap then begin
      let i = b.len in
      b.id.(i) <- id;
      b.name.(i) <- name;
      b.parent.(i) <- parent;
      b.req.(i) <- req;
      b.start.(i) <- start;
      b.stop.(i) <- stop;
      b.len <- i + 1
    end

  let write oc ~domain b =
    for i = 0 to b.len - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"domain\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        b.id.(i) b.parent.(i) b.req.(i) names.(b.name.(i)) domain b.start.(i)
        b.stop.(i)
    done
end

(** {2 Per-domain recorders}

    Every call through {!Timed} is timed into the calling domain's
    recorder. A run starts a new generation; recorders of older
    generations are replaced on first use, so each measured segment sees
    only its own calls. *)

type recorder = {
  gen : int;
  domain : int;
  worker_id : int;  (** id of this domain's [workload.worker] span *)
  wins : Hist.Windows.t array;  (** per op kind, every call *)
  mutable ins_ok : int;
  mutable del_ok : int;
  mutable calls : int;
  mutable call_ns : int;  (** sum of all call durations *)
  mutable first : int;  (** start of the first call *)
  mutable last : int;  (** end of the last call *)
  mutable tick : int;
  mutable last_start : int;  (** start of the most recent call *)
  words : float array;  (** minor words of sampled calls, per op kind *)
  words_n : int array;
  w : float array;  (** scratch: minor words before and after a call *)
  spans : Spans.buf;
}

let generation = Atomic.make 0
let recorders : recorder list Atomic.t = Atomic.make []

(* Set between segments only, while no worker runs. *)
let tracing = ref false
let window_origin = ref 0
let window_ns = ref 500_000_000

(* One call in [sample_mask + 1] is sampled for minor words; one in
   [span_mask + 1] is also kept in the span log of a closed loop. *)
let sample_mask = 63
let span_mask = 1023

let fresh gen =
  {
    gen;
    domain = (Domain.self () :> int);
    worker_id = Spans.fresh_id ();
    wins =
      Array.init 3 (fun _ ->
          Hist.Windows.create ~origin:!window_origin ~len:!window_ns);
    ins_ok = 0;
    del_ok = 0;
    calls = 0;
    call_ns = 0;
    first = 0;
    last = 0;
    tick = 0;
    last_start = 0;
    words = Array.make 3 0.0;
    words_n = Array.make 3 0;
    w = Array.make 2 0.0;
    spans = Spans.create (if !tracing then 1 lsl 17 else 0);
  }

let make_recorder gen =
  let r = fresh gen in
  let rec add () =
    let l = Atomic.get recorders in
    if not (Atomic.compare_and_set recorders l (r :: l)) then add ()
  in
  add ();
  r

let key = Domain.DLS.new_key (fun () -> fresh (-1))

let current () =
  let r = Domain.DLS.get key in
  let g = Atomic.get generation in
  if r.gen = g then r
  else begin
    let r = make_recorder g in
    Domain.DLS.set key r;
    r
  end

(* Start a new segment: forget every recorder. *)
let new_generation ~traced =
  tracing := traced;
  window_origin := now ();
  Atomic.set recorders [];
  Atomic.incr generation

let all () = Atomic.get recorders
let hist r op = Hist.Windows.all r.wins.(op)

(* The span log of closed-loop recorders: each domain's [workload.worker]
   span, first to last call, and its sampled dictionary calls. *)
let span_bufs rs =
  List.concat_map
    (fun r ->
      let w = Spans.create 1 in
      Spans.push w ~id:r.worker_id ~name:Spans.worker ~parent:0 ~req:0
        ~start:r.first ~stop:r.last;
      [ (r.domain, w); (r.domain, r.spans) ])
    rs

(* Set while [serve] measures. The wrapper then publishes each updater
   apply for the single client to read back after its write completes,
   and records no spans: the client builds each request's spans itself.
   [inflight] holds the request id of the one outstanding write, set by
   the client before it enqueues. *)
let serving = ref false
let inflight = Atomic.make 0
let apply_start = Atomic.make 0
let apply_stop = Atomic.make 0
let apply_req = Atomic.make 0

let[@inline] sampled r =
  let t = r.tick in
  r.tick <- t + 1;
  !tracing && t land sample_mask = 0

let finish r op t0 t1 smp =
  Hist.Windows.record r.wins.(op) ~start:t0 ~stop:t1 (t1 - t0);
  if r.calls = 0 then r.first <- t0;
  r.calls <- r.calls + 1;
  r.call_ns <- r.call_ns + (t1 - t0);
  r.last <- t1;
  r.last_start <- t0;
  if smp then begin
    r.words.(op) <- r.words.(op) +. (r.w.(1) -. r.w.(0));
    r.words_n.(op) <- r.words_n.(op) + 1;
    if (not !serving) && r.tick land span_mask = 1 then
      Spans.push r.spans ~id:(Spans.fresh_id ()) ~name:(Spans.citrus_op op)
        ~parent:r.worker_id ~req:0 ~start:t0 ~stop:t1
  end

let note_apply t0 t1 =
  if !serving then begin
    Atomic.set apply_req (Atomic.get inflight);
    Atomic.set apply_start t0;
    Atomic.set apply_stop t1
  end

(** {2 The timing wrapper}

    [include D] keeps every other DICT function as the program ships it.
    [create] hands out a tree the benchmark built and settled beforehand
    when one is staged with {!stage}, so [Runner.run] measures a tree
    whose set-up was timed outside it. Each timed body is written out in
    full rather than through a closure so the wrapper adds no allocation
    to the minor-words count. *)
module Timed (D : Repro_dict.Dict.DICT) = struct
  include D

  let staged : D.t option ref = ref None
  let stage t = staged := Some t

  let create ?max_threads () =
    match !staged with
    | Some t ->
        staged := None;
        t
    | None -> D.create ?max_threads ()

  let contains h k =
    let r = current () in
    let smp = sampled r in
    if smp then r.w.(0) <- Gc.minor_words ();
    let t0 = now () in
    let res = D.contains h k in
    let t1 = now () in
    if smp then r.w.(1) <- Gc.minor_words ();
    finish r op_contains t0 t1 smp;
    res

  let mem h k =
    let r = current () in
    let smp = sampled r in
    if smp then r.w.(0) <- Gc.minor_words ();
    let t0 = now () in
    let res = D.mem h k in
    let t1 = now () in
    if smp then r.w.(1) <- Gc.minor_words ();
    finish r op_contains t0 t1 smp;
    res

  let insert h k v =
    let r = current () in
    let smp = sampled r in
    if smp then r.w.(0) <- Gc.minor_words ();
    let t0 = now () in
    let res = D.insert h k v in
    let t1 = now () in
    if smp then r.w.(1) <- Gc.minor_words ();
    if res then r.ins_ok <- r.ins_ok + 1;
    finish r op_insert t0 t1 smp;
    note_apply t0 t1;
    res

  let delete h k =
    let r = current () in
    let smp = sampled r in
    if smp then r.w.(0) <- Gc.minor_words ();
    let t0 = now () in
    let res = D.delete h k in
    let t1 = now () in
    if smp then r.w.(1) <- Gc.minor_words ();
    if res then r.del_ok <- r.del_ok + 1;
    finish r op_delete t0 t1 smp;
    note_apply t0 t1;
    res
end

(** {2 Inputs} *)

(* [n] distinct keys of [0, range) in random order: a uniform random
   subset, inserted in an order that gives Citrus's unbalanced tree its
   expected logarithmic depth. *)
let sample_keys rng ~range ~n =
  let a = Array.init range Fun.id in
  for i = 0 to n - 1 do
    let j = i + Random.State.int rng (range - i) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 n

(* The GC's top heap size once the first segment's data is built and
   settled; later segments leave it unchanged. *)
let setup_top_heap_words = ref 0

let note_setup_heap () =
  if !setup_top_heap_words = 0 then
    setup_top_heap_words := (Gc.quick_stat ()).top_heap_words
