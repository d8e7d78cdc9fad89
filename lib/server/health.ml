module Metrics = Repro_sync.Metrics
module Stats = Repro_sync.Stats
module Trace = Repro_sync.Trace

(* Per-shard health state machine, driving the serving layer's overload
   control. The state is one atomic int so the enqueue path pays one load
   to consult it; transitions are CAS so concurrent observers (producers
   seeing depth, the supervisor marking failure) agree on a single
   history, and [Failed] is terminal — a shard past its restart budget
   never silently resurrects. *)

type state = Healthy | Degraded | Failed

type t = {
  shard : int;
  s : int Atomic.t; (* 0 = healthy, 1 = degraded, 2 = failed *)
  high : int; (* queue depth at/above which Healthy -> Degraded *)
  low : int; (* queue depth at/below which Degraded -> Healthy *)
  pressure_latch : bool Atomic.t;
      (* Reclamation fell behind (retired backlog near its watermark or
         a grace-period stall): degrade, and keep the shard from healing
         on queue depth alone — a shed queue drains fast precisely
         because writes are being shed, while the retired backlog only
         shrinks once readers let grace periods complete. *)
}

let code = function Healthy -> 0 | Degraded -> 1 | Failed -> 2

let state_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Failed -> "failed"

let of_code = function 0 -> Healthy | 1 -> Degraded | _ -> Failed

let create ~shard ~capacity =
  if capacity <= 0 then invalid_arg "Health.create: capacity must be positive";
  {
    shard;
    s = Atomic.make 0;
    (* Degrade at 3/4 of the capacity, heal at 1/4; max 1: a tiny queue
       still degrades before it is full. *)
    high = max 1 (capacity * 3 / 4);
    low = capacity / 4;
    pressure_latch = Atomic.make false;
  }

let shard t = t.shard
let state t = of_code (Atomic.get t.s)
let high_watermark t = t.high
let low_watermark t = t.low

let trace_change t st = Trace.record Trace.Shard_state ((t.shard * 4) + code st)

let observe_depth t depth =
  (* Hysteresis: degrade at the high watermark, recover only once the
     queue has drained down to the low one — a queue hovering at the
     boundary does not flap between shedding and admitting. A set
     pressure latch blocks the recovery arm: shed queues drain quickly
     (that is what shedding is for), but the shard is only actually
     well once reclamation has caught up too. *)
  match Atomic.get t.s with
  | 0 ->
      if depth >= t.high && Atomic.compare_and_set t.s 0 1 then
        trace_change t Degraded
  | 1 ->
      if
        depth <= t.low
        && (not (Atomic.get t.pressure_latch))
        && Atomic.compare_and_set t.s 1 0
      then trace_change t Healthy
  | _ -> ()

let pressure_latched t = Atomic.get t.pressure_latch

let observe_reclaim_pressure t p =
  (* Hysteretic like depth: latch at 0.75 of the retired-bag watermark,
     clear at 0.25. Setting the latch also degrades a healthy shard —
     reclamation debt is overload even with an empty queue, because every
     applied write adds to a backlog nothing is draining. Clearing only
     releases the latch; healing stays depth-driven so the two signals
     compose. *)
  if p >= 0.75 then begin
    if Atomic.compare_and_set t.pressure_latch false true then
      if Atomic.get t.s = 0 && Atomic.compare_and_set t.s 0 1 then
        trace_change t Degraded
  end
  else if p <= 0.25 then
    ignore (Atomic.compare_and_set t.pressure_latch true false)

let note_stall t =
  (* A stale queue is overload even at modest depth: the updater is not
     keeping up (wedged, crashed, or grace-period-bound). Recovery is
     depth-driven like any other degradation — once the (restarted)
     updater drains to the low watermark, [observe_depth] heals it. *)
  if Atomic.get t.s = 0 && Atomic.compare_and_set t.s 0 1 then
    trace_change t Degraded

let mark_failed t =
  let rec go () =
    match Atomic.get t.s with
    | 2 -> false
    | c ->
        if Atomic.compare_and_set t.s c 2 then true
        else go ()
  in
  if go () then begin
    trace_change t Failed;
    Stats.incr Metrics.shards_failed (Metrics.slot ());
    true
  end
  else false
