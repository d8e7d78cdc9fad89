module Metrics = Repro_sync.Metrics
module Stats = Repro_sync.Stats
module Trace = Repro_sync.Trace
module Rng = Repro_sync.Rng
module Fault = Repro_fault.Fault

(* Per-shard circuit breaker: Closed -> Open on a rolling-window failure
   rate (rejects, deadline expiries) or an updater crash; Open rejects
   everything for a jittered, doubling interval; Half_open admits a
   bounded number of probe writes whose outcomes decide between closing
   and re-opening. The point is the *re-offer schedule*: a shard that
   just crash-restarted or shed its backlog is offered load gradually
   instead of being instantly re-swamped by every retrying client at
   once (the jitter decorrelates the breakers across shards, the
   doubling backs a persistently sick shard off harder).

   All transitions are CAS on one atomic state int so the admission path
   pays one load when Closed; time is an explicit [now_ns] argument so
   the state machine is testable without sleeping. The clock-carrying
   design also means racy window resets only ever lose samples, never
   corrupt the state: every field is either a monotone counter or
   rewritten wholesale at a transition. *)

type state = Closed | Open | Half_open

type verdict = Admit | Probe | Reject

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

let state_code = function Closed -> 0 | Open -> 1 | Half_open -> 2

type config = {
  window_ns : int;
  min_samples : int;
  failure_pct : int;
  open_base_ns : int;
  open_max_ns : int;
  probes : int;
}

let default_config =
  {
    window_ns = 1_000_000_000;
    min_samples = 20;
    failure_pct = 50;
    open_base_ns = 10_000_000;
    open_max_ns = 2_000_000_000;
    probes = 3;
  }

type t = {
  shard : int;
  cfg : config;
  seed : int64;
  s : int Atomic.t; (* 0 closed, 1 open, 2 half_open *)
  win_start : int Atomic.t;
  win_succ : int Atomic.t;
  win_fail : int Atomic.t;
  open_until : int Atomic.t;
  consec : int Atomic.t; (* trips since the last close (backoff doubling) *)
  trips_ : int Atomic.t; (* lifetime trips *)
  rejects_ : int Atomic.t;
  probes_started : int Atomic.t;
  probe_succ : int Atomic.t;
}

(* Seeded bug (ROBUSTNESS.md, "Mutation suite"): when it fires, [trip] is
   a no-op, so the breaker never opens and overload feedback is silently
   lost. *)
let bug_never_open = Fault.register "bug.breaker.never_open"

let create ?(config = default_config) ?(seed = 42L) ~shard () =
  if config.window_ns <= 0 then
    invalid_arg "Breaker.create: window_ns must be positive";
  if config.min_samples <= 0 then
    invalid_arg "Breaker.create: min_samples must be positive";
  if config.failure_pct < 1 || config.failure_pct > 100 then
    invalid_arg "Breaker.create: failure_pct must be in [1, 100]";
  if config.open_base_ns <= 0 || config.open_max_ns < config.open_base_ns then
    invalid_arg "Breaker.create: want 0 < open_base_ns <= open_max_ns";
  if config.probes <= 0 then
    invalid_arg "Breaker.create: probes must be positive";
  {
    shard;
    cfg = config;
    seed;
    s = Atomic.make 0;
    win_start = Atomic.make 0;
    win_succ = Atomic.make 0;
    win_fail = Atomic.make 0;
    open_until = Atomic.make 0;
    consec = Atomic.make 0;
    trips_ = Atomic.make 0;
    rejects_ = Atomic.make 0;
    probes_started = Atomic.make 0;
    probe_succ = Atomic.make 0;
  }

let shard t = t.shard
let config t = t.cfg

let state t =
  match Atomic.get t.s with 0 -> Closed | 1 -> Open | _ -> Half_open

let trips t = Atomic.get t.trips_
let rejects t = Atomic.get t.rejects_
let open_until_ns t = Atomic.get t.open_until
let window t = (Atomic.get t.win_succ, Atomic.get t.win_fail)
let probes_in_flight t = Atomic.get t.probes_started - Atomic.get t.probe_succ

let trace t code = Trace.record Trace.Breaker_state ((t.shard * 4) + code)

(* Rotate the rolling window when it has aged out. The CAS elects one
   rotator; the counter stores behind it can race a concurrent recorder
   and drop that sample — losing one sample from a fresh window is
   harmless (the window exists to estimate a rate). *)
let rotate t ~now_ns =
  let ws = Atomic.get t.win_start in
  if now_ns - ws > t.cfg.window_ns then
    if Atomic.compare_and_set t.win_start ws now_ns then begin
      Atomic.set t.win_succ 0;
      Atomic.set t.win_fail 0
    end

(* Trip to Open from Closed or Half_open. The open interval doubles with
   each consecutive trip (reset on close) up to the cap, jittered into
   [0.5, 1.0) of nominal by a splitmix64 stream derived from the
   breaker's seed and the trip ordinal — deterministic under a seeded
   run, decorrelated across shards (different seeds) and across trips.
   [open_until] is published before the state CAS so no admitter can
   observe Open with a stale deadline. *)
let rec trip t ~now_ns =
  if not (Fault.enabled () && Fault.fires bug_never_open) then
    match Atomic.get t.s with
    | 1 -> ()
    | c ->
        let n = Atomic.get t.consec + 1 in
        let nominal =
          min t.cfg.open_max_ns (t.cfg.open_base_ns lsl min 20 (n - 1))
        in
        let rng = Rng.create (Int64.logxor t.seed (Int64.of_int n)) in
        let jittered =
          int_of_float (float_of_int nominal *. (0.5 +. (0.5 *. Rng.float rng)))
        in
        Atomic.set t.open_until (now_ns + jittered);
        if Atomic.compare_and_set t.s c 1 then begin
          Atomic.incr t.consec;
          Atomic.incr t.trips_;
          Atomic.set t.win_succ 0;
          Atomic.set t.win_fail 0;
          Atomic.set t.probes_started 0;
          Atomic.set t.probe_succ 0;
          if Metrics.enabled () then
            Stats.incr Metrics.breaker_open (Metrics.slot ());
          trace t 1
        end
        else trip t ~now_ns

let close t =
  if Atomic.compare_and_set t.s 2 0 then begin
    Atomic.set t.consec 0;
    Atomic.set t.win_succ 0;
    Atomic.set t.win_fail 0;
    trace t 0
  end

let reject_counted t =
  Atomic.incr t.rejects_;
  if Metrics.enabled () then
    Stats.incr Metrics.breaker_rejects (Metrics.slot ());
  Reject

(* Probe admission: at most [cfg.probes] probe operations per Half_open
   episode, claimed by CAS so concurrent admitters cannot over-issue. *)
let rec claim_probe t =
  let n = Atomic.get t.probes_started in
  if n >= t.cfg.probes then reject_counted t
  else if Atomic.compare_and_set t.probes_started n (n + 1) then Probe
  else claim_probe t

let rec admit t ~now_ns =
  match Atomic.get t.s with
  | 0 ->
      rotate t ~now_ns;
      Admit
  | 1 ->
      if now_ns < Atomic.get t.open_until then reject_counted t
      else if Atomic.compare_and_set t.s 1 2 then begin
        Atomic.set t.probes_started 0;
        Atomic.set t.probe_succ 0;
        trace t 2;
        claim_probe t
      end
      else admit t ~now_ns
  | _ -> claim_probe t

let on_success t ~now_ns ~probe =
  if probe then begin
    let n = 1 + Atomic.fetch_and_add t.probe_succ 1 in
    if n >= t.cfg.probes then close t
  end
  else begin
    rotate t ~now_ns;
    Atomic.incr t.win_succ
  end

let on_failure t ~now_ns ~probe =
  if probe then
    (* A failed probe is conclusive: re-open immediately, with the next
       (doubled) interval. *)
    trip t ~now_ns
  else begin
    rotate t ~now_ns;
    Atomic.incr t.win_fail;
    (* Trip on the window rate only from Closed: Half_open outcomes are
       decided by the probes, and stragglers from before the trip (old
       queued entries expiring) must not re-open a breaker already
       probing its way closed. *)
    if Atomic.get t.s = 0 then begin
      let f = Atomic.get t.win_fail in
      let s = Atomic.get t.win_succ in
      if s + f >= t.cfg.min_samples && f * 100 >= t.cfg.failure_pct * (s + f)
      then trip t ~now_ns
    end
  end

let on_crash t ~now_ns =
  (* A crash is conclusive regardless of the window: the shard is
     restarting and must be re-offered load gradually. *)
  trip t ~now_ns
