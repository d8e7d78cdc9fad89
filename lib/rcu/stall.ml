module Trace = Repro_sync.Trace
module Metrics = Repro_sync.Metrics
module Stats = Repro_sync.Stats

type mode = Warn | Fail

type report = {
  flavour : string;
  slot : int;
  nesting : int;
  phase : int;
  elapsed_ns : int;
  grace_periods : int;
  trace_tail : Trace.event list;
}

exception Stalled of report

(* Watchdog configuration. The threshold is the only state read on an
   un-stalled grace period: each reader wait reads it once into a local,
   and with it 0 (disarmed) a blocked slot's backoff step skips the
   deadline check, so benches with the watchdog off read no clock in the
   wait. *)
let threshold = Atomic.make 0 (* ns; 0 = disarmed *)
let fail_mode = Atomic.make false

let threshold_ns () = Atomic.get threshold
let current_mode () = if Atomic.get fail_mode then Fail else Warn

let arm ?(mode = Warn) ~threshold_ns () =
  if threshold_ns <= 0 then
    invalid_arg "Stall.arm: threshold_ns must be positive";
  Atomic.set fail_mode (mode = Fail);
  Atomic.set threshold threshold_ns

let disarm () =
  Atomic.set threshold 0;
  Atomic.set fail_mode false

let trace_tail_limit = 8

let to_string r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "RCU grace-period stall (%s): slot %d has blocked the grace period for \
     %.1f ms (nesting=%d, phase=%d, grace_periods=%d, mode=%s)"
    r.flavour r.slot
    (float_of_int r.elapsed_ns /. 1e6)
    r.nesting r.phase r.grace_periods
    (match current_mode () with Warn -> "warn" | Fail -> "fail");
  if r.trace_tail <> [] then begin
    Buffer.add_string b "\n  trace tail (newest last):";
    List.iter
      (fun (e : Trace.event) ->
        Printf.bprintf b "\n    t=%dns d%d %s %d" e.t_ns e.domain
          (Trace.kind_to_string e.kind)
          e.arg)
      r.trace_tail
  end;
  Buffer.contents b

let default_handler r = Printf.eprintf "%s\n%!" (to_string r)

let handler = Atomic.make default_handler
let set_handler f = Atomic.set handler f
let reset_handler () = Atomic.set handler default_handler

(* Last [trace_tail_limit] ring events, oldest first. Dump materializes the
   whole ring, which is fine here: building a report is already the
   diagnosed-failure path, never the hot one. *)
let tail_of_trace () =
  if not (Trace.enabled ()) then []
  else begin
    let events = Trace.dump () in
    let n = List.length events in
    if n <= trace_tail_limit then events
    else List.filteri (fun i _ -> i >= n - trace_tail_limit) events
  end

let report ~flavour ~slot ~nesting ~phase ~elapsed_ns ~grace_periods =
  {
    flavour;
    slot;
    nesting;
    phase;
    elapsed_ns;
    grace_periods;
    trace_tail = tail_of_trace ();
  }

(* Stall recency, consumed by the serving layer's admission control
   (Health): a grace period that recently stalled means reclamation is
   (or was moments ago) wedged behind a parked reader, so backlog
   pressure should be treated as rising even before the retired bags
   fill. Monotonic-clock timestamps, process-global like the watchdog
   itself. *)
let last_stall = Atomic.make 0
let stall_total = Atomic.make 0

let last_stall_ns () = Atomic.get last_stall
let stall_count () = Atomic.get stall_total

let recently_stalled ~within_ns =
  let t = Atomic.get last_stall in
  t > 0 && Trace.now_ns () - t <= within_ns

let note r =
  Atomic.set last_stall (Trace.now_ns ());
  Atomic.incr stall_total;
  Stats.incr Metrics.rcu_stalls (Metrics.slot ());
  Trace.record Stall r.slot;
  (Atomic.get handler) r;
  if Atomic.get fail_mode then raise (Stalled r)

(* Environment configuration: REPRO_STALL_MS arms the watchdog at process
   start; REPRO_STALL_MODE=fail switches to fail mode (default warn). *)
let () =
  match Sys.getenv_opt "REPRO_STALL_MS" with
  | None -> ()
  | Some s -> (
      match int_of_string_opt s with
      | Some ms when ms > 0 ->
          let mode =
            match Sys.getenv_opt "REPRO_STALL_MODE" with
            | Some "fail" -> Fail
            | _ -> Warn
          in
          arm ~mode ~threshold_ns:(ms * 1_000_000) ()
      | Some _ | None ->
          Printf.eprintf "repro_rcu: ignoring bad REPRO_STALL_MS %S\n%!" s)
