module Metrics = Repro_sync.Metrics
module Stats = Repro_sync.Stats
module Trace = Repro_sync.Trace
module Rng = Repro_sync.Rng

(* Supervision for a shard's updater domain: run the updater body, and
   when it dies with an exception, restart it — rate-limited by
   exponential backoff under a windowed restart budget; past the budget
   the shard is declared failed and the chain ends.

   The mechanism is a *chain respawn*: the dying incarnation itself
   spawns its successor (after recording the crash and sleeping the
   backoff), then exits. This gives the whole chain a single logical
   thread of control — the crash bookkeeping ([window_crashes],
   [last_crash_ns], [restart_samples]) is plain mutable state with
   happens-before edges supplied by [Domain.spawn] (reinforced by the
   successor joining its predecessor, below), and there is no monitor
   domain burning a core per shard just to watch for exits. Whatever
   backlog-adoption the restarted updater performs lives in [run]
   itself (see [Shard_router]): the supervisor is policy, not
   mechanism.

   Only the newest incarnation's handle is retained ([latest]). Each
   successor begins by joining its predecessor — which exits right
   after publishing the successor, so the join is near-instant — and
   therefore (a) no handle is ever leaked or accumulated across a
   long-lived shard's restarts, (b) joining the final handle
   transitively joins every domain the chain ever spawned, and (c) by
   the time any chain code runs in the successor, [latest] already
   names it: [done_] can never be observed while [latest] still points
   at a dead predecessor. The first incarnation has no predecessor and
   gates on a flag the spawner sets after publishing instead.

   Lifecycle flags are atomics because *other* domains poll them:
   [done_] tells the shutdown path the chain has exited (so joining
   cannot block on a live incarnation), [failed_] tells the router to
   stop admitting writes. [abort] is polled during backoff sleeps and
   before any respawn, so a forced shutdown never waits out a backoff
   and never gets a fresh updater spawned under it. *)

type policy = {
  max_restarts : int;
  backoff_base_ns : int;
  backoff_max_ns : int;
  reset_after_ns : int;
}

let default_policy =
  {
    max_restarts = 8;
    backoff_base_ns = 1_000_000;
    backoff_max_ns = 100_000_000;
    reset_after_ns = 1_000_000_000;
  }

type t = {
  shard : int;
  policy : policy;
  run : unit -> unit;
  abort : unit -> bool;
  on_failed : exn -> unit;
  on_crash : (exn -> unit) option; (* fires on every crash, before backoff *)
  jitter : Rng.t option; (* chain-private: only incarnations draw from it *)
  done_ : bool Atomic.t;
  failed_ : bool Atomic.t;
  crashes : int Atomic.t;
  restarts : int Atomic.t;
  latest : unit Domain.t option Atomic.t; (* newest incarnation, see above *)
  joined : bool Atomic.t;
  (* Chain-private state (single logical thread, see above). *)
  mutable window_crashes : int;
  mutable last_crash_ns : int;
  mutable restart_samples : int list; (* crash-to-running, ns *)
}

let now_ns = Metrics.now_ns

(* Backoff sleep in ~1 ms slices, polling [abort] so a forced shutdown
   is never gated on a supervisor finishing its nap. *)
let sleep_backoff t ns =
  let deadline = now_ns () + ns in
  let rec go () =
    if not (t.abort ()) then begin
      let left = deadline - now_ns () in
      if left > 0 then begin
        Unix.sleepf (Float.min 0.001 (float_of_int left /. 1e9));
        go ()
      end
    end
  in
  go ()

let rec incarnation t ~adopted_at () =
  (match adopted_at with
  | Some crash_ns ->
      let lat = now_ns () - crash_ns in
      t.restart_samples <- lat :: t.restart_samples;
      Stats.Timer.record Metrics.updater_restart_ns (Metrics.slot ()) lat
  | None -> ());
  match t.run () with
  | () -> Atomic.set t.done_ true (* clean exit: stop requested, drained *)
  | exception e ->
      Atomic.incr t.crashes;
      Stats.incr Metrics.updater_crashes (Metrics.slot ());
      Trace.record Trace.Updater_crash t.shard;
      (match t.on_crash with
      | Some f -> ( try f e with _ -> ())
      | None -> ());
      let now = now_ns () in
      if t.last_crash_ns > 0 && now - t.last_crash_ns > t.policy.reset_after_ns
      then t.window_crashes <- 0;
      t.last_crash_ns <- now;
      t.window_crashes <- t.window_crashes + 1;
      if t.window_crashes > t.policy.max_restarts then begin
        Atomic.set t.failed_ true;
        (try t.on_failed e with _ -> ());
        Atomic.set t.done_ true
      end
      else if t.abort () then Atomic.set t.done_ true
      else begin
        let shift = min 20 (t.window_crashes - 1) in
        let nominal =
          min t.policy.backoff_max_ns (t.policy.backoff_base_ns lsl shift)
        in
        (* Jitter the backoff into [0.5, 1.0) of nominal when the chain
           was seeded: shards crashed by the same fault then respawn
           decorrelated instead of stampeding back in lockstep, and the
           whole schedule replays under the same seed. The stream is
           chain-private mutable state like the crash window — only the
           (single logical) chain thread draws from it. *)
        let backoff =
          match t.jitter with
          | None -> nominal
          | Some rng ->
              int_of_float
                (float_of_int nominal *. (0.5 +. (0.5 *. Rng.float rng)))
        in
        sleep_backoff t backoff;
        if t.abort () then Atomic.set t.done_ true
        else begin
          Atomic.incr t.restarts;
          Stats.incr Metrics.updater_restarts (Metrics.slot ());
          Trace.record Trace.Updater_restart t.shard;
          spawn_next t ~adopted_at:(Some now)
        end
      end

(* Spawn the next incarnation so [latest] is complete before the chain
   can publish [done_]. The successor first joins its predecessor (for a
   respawn, [prev] is the spawning domain itself, which exits right
   after publishing — so the join also orders the chain-private mutable
   state); the first incarnation instead spins on [ready], set after the
   publication. Either way, no chain code runs in the new domain until
   [latest] names it. *)
and spawn_next t ~adopted_at =
  let prev = Atomic.get t.latest in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        (match prev with Some p -> Domain.join p | None -> ());
        while not (Atomic.get ready) do
          Domain.cpu_relax ()
        done;
        incarnation t ~adopted_at ())
  in
  Atomic.set t.latest (Some d);
  Atomic.set ready true

let start ?(policy = default_policy) ?jitter_seed ?on_crash ~shard ~abort
    ~on_failed run =
  if policy.max_restarts < 0 then
    invalid_arg "Supervisor.start: max_restarts must be >= 0";
  if policy.backoff_base_ns <= 0 || policy.backoff_max_ns < policy.backoff_base_ns
  then invalid_arg "Supervisor.start: want 0 < backoff_base_ns <= backoff_max_ns";
  let t =
    {
      shard;
      policy;
      run;
      abort;
      on_failed;
      on_crash;
      jitter = Option.map Rng.create jitter_seed;
      done_ = Atomic.make false;
      failed_ = Atomic.make false;
      crashes = Atomic.make 0;
      restarts = Atomic.make 0;
      latest = Atomic.make None;
      joined = Atomic.make false;
      window_crashes = 0;
      last_crash_ns = 0;
      restart_samples = [];
    }
  in
  spawn_next t ~adopted_at:None;
  t

let shard t = t.shard
let finished t = Atomic.get t.done_
let failed t = Atomic.get t.failed_
let crashes t = Atomic.get t.crashes
let restarts t = Atomic.get t.restarts

let join t =
  (* Only meaningful once [finished]: past that point the chain spawns
     no further incarnation and [latest] names the final one — published
     before it could run, so a true [done_] is never paired with a stale
     handle. Every earlier incarnation was joined by its successor, so
     joining the final handle joins the whole chain. Idempotent (a
     domain may be joined only once). *)
  if Atomic.compare_and_set t.joined false true then
    match Atomic.get t.latest with
    | Some d -> Domain.join d
    | None -> ()

let restart_latencies_ns t = t.restart_samples
