(** Crash supervision for shard updater domains.

    [start] spawns a domain running [run] and keeps it running across
    crashes: an exception escaping [run] is caught, counted
    ([updater_crashes] metric, [Updater_crash] trace), and — after an
    exponential backoff (seeded-jittered when [jitter_seed] is given),
    rate-limited by a windowed restart budget — a fresh domain is
    spawned to run [run] again
    ([updater_restarts] metric, [Updater_restart] trace, crash-to-running
    latency sampled into [updater_restart_ns]). Backlog adoption is
    [run]'s own job (the restarted updater re-reads the surviving
    {!Mod_queue} and any pending batch, see {!Shard_router}); the
    supervisor only decides {e whether} and {e when} to restart.

    Past [max_restarts] crashes within a [reset_after_ns] window the
    chain gives up: [failed] becomes true, [on_failed] runs once (mark
    the shard failed, purge its queue), and no further incarnation is
    spawned. A clean return from [run] (shutdown) ends the chain without
    any of that.

    Implementation note: restarts are chain-respawns — the dying
    incarnation spawns its successor — so the crash bookkeeping is
    single-threaded by construction and no monitor domain is needed.
    Each successor joins its predecessor on startup, so only the newest
    domain handle is retained (nothing accumulates across a long-lived
    shard's restarts) and {!join} reaches the whole chain through it. *)

type policy = {
  max_restarts : int;
      (** crashes tolerated within a window before declaring failure *)
  backoff_base_ns : int;  (** first restart delay *)
  backoff_max_ns : int;  (** delay cap (doubling saturates here) *)
  reset_after_ns : int;
      (** a crash-free gap this long resets the crash count — steady
          rare crashes restart forever, a crash loop exhausts the
          budget *)
}

val default_policy : policy
(** 8 restarts, 1 ms base, 100 ms cap, 1 s reset window. *)

type t

val start :
  ?policy:policy ->
  ?jitter_seed:int64 ->
  ?on_crash:(exn -> unit) ->
  shard:int ->
  abort:(unit -> bool) ->
  on_failed:(exn -> unit) ->
  (unit -> unit) ->
  t
(** Spawn the first incarnation of [run]. [abort] is polled during
    backoff sleeps and before every respawn — once it returns true the
    chain exits instead of restarting (forced shutdown). [on_failed]
    runs exactly once, from the dying incarnation, when the budget is
    exhausted. [on_crash] fires on {e every} crash, before the backoff
    sleep (the router trips the shard's {!Breaker} here); exceptions it
    raises are swallowed. [jitter_seed] arms backoff jitter: each sleep
    is scaled into [0.5, 1.0) of nominal by a chain-private
    deterministic stream, so shards felled by one fault respawn
    decorrelated yet reproducibly — give each shard
    [logxor run_seed shard_salt]. Unset = jitter-free (exact doubling),
    preserving old behaviour. [shard] labels traces and metrics.
    @raise Invalid_argument on a nonsensical policy. *)

val shard : t -> int

val finished : t -> bool
(** The chain has exited — cleanly, by failure, or by abort. Poll this
    (with a deadline) before {!join}; a live incarnation can be wedged
    arbitrarily long and joining it would inherit the wedge. *)

val failed : t -> bool
val crashes : t -> int
val restarts : t -> int

val join : t -> unit
(** Join every incarnation ever spawned (via the newest handle — each
    incarnation already joined its predecessor; the newest is always
    published before it can run, so a true {!finished} never races a
    stale handle). Idempotent. Call only once {!finished} is true. *)

val restart_latencies_ns : t -> int list
(** Crash-to-replacement-running samples, newest first — the recovery
    latencies the chaos harness bounds at p99. Stable once {!finished}. *)
