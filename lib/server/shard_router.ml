module Backoff = Repro_sync.Backoff
module Metrics = Repro_sync.Metrics
module Stats = Repro_sync.Stats
module Fault = Repro_fault.Fault
module Stall = Repro_rcu.Stall

(* A sharded dictionary service: keys are hashed across [shards]
   independent trees, each with its own RCU domain registration, lock
   classes and bounded modification queue drained by a dedicated updater
   domain. Reads go straight to the owning shard's tree (wait-free, as in
   the paper); writes are enqueued and applied asynchronously, so a
   client never pays a grace period — the updater does, and while one
   shard's updater is blocked in synchronize the other shards' updaters
   keep draining. See SERVING.md.

   Each updater runs under a [Supervisor]: a crash (injected or real)
   unregisters the dead domain's RCU slot, and the restarted incarnation
   adopts both the surviving queue and the crashed one's
   spliced-but-unapplied batch ([pending] below), so an accepted write
   is never lost across a crash. Admission is gated by a per-shard
   [Health] state machine. See ROBUSTNESS.md, "Serving-layer failure
   model". *)

(* Typed admission rejects, outside the functor so every instantiation
   shares one type (and so [Failed] does not collide with
   [Health.Failed] inside [Make]). *)
type reject =
  | Full (* queue at capacity — retryable backpressure *)
  | Overload (* shed by a Degraded shard — retryable *)
  | Breaker_open (* shard's circuit breaker rejected — retryable *)
  | Expired (* the write's deadline elapsed before application *)
  | Failed (* shard past its restart budget — permanent *)
  | Shutdown (* router stopping — permanent *)

let reject_name = function
  | Full -> "full"
  | Overload -> "overload"
  | Breaker_open -> "breaker_open"
  | Expired -> "expired"
  | Failed -> "failed"
  | Shutdown -> "shutdown"

(* The resolved result of a waited write, distinguishing a normal
   application from one replayed by a replacement updater after a crash
   (whose boolean is only "as of the last application" — see
   [Mod_queue.status]). *)
type write_result = Applied of bool | Replayed of bool

let write_result_value = function Applied r -> r | Replayed r -> r

(* One report per shard that could not shut down cleanly. *)
type drain_report = {
  shard : int;
  queue_depth : int; (* entries still queued when the deadline expired *)
  last_drain_ns : int; (* timestamp of the shard's last drain call *)
  crashes : int; (* updater crashes over the shard's lifetime *)
  lost : int; (* accepted writes purged (completions aborted) *)
  wedged : bool; (* updater never exited — domain abandoned unjoined *)
}

type shutdown_result = Drained | Forced of drain_report list

let fp_crash = Fault.register "server.updater.crash"

(* Seeded bugs (ROBUSTNESS.md, "Mutation suite"), each caught by a chaos
   mutant: a restarted updater that drops its crashed predecessor's
   pending batch instead of adopting it, and a drain that applies entries
   whose deadline already passed. *)
let bug_forget_backlog = Fault.register "bug.router.forget_backlog"
let bug_skip_deadline = Fault.register "bug.router.skip_deadline"

module Make (D : Repro_dict.Dict.DICT) = struct
  type shard = {
    table : D.t;
    queue : Mod_queue.t;
    health : Health.t;
    breaker : Breaker.t;
    crash_flag : bool Atomic.t;
    (* The batch most recently spliced out of [queue], and how far into
       it application has progressed. Written only by the shard's single
       live updater incarnation (handoff across a crash is ordered by
       the supervisor's [Domain.spawn] chain); atomics rather than plain
       mutables because the forced-shutdown path must read them while a
       wedged, abandoned updater may still be running — it aborts the
       remainder's completions race-free, relying on [Mod_queue.abort]'s
       CAS to lose against any concurrent completion. *)
    pending : Mod_queue.entry array Atomic.t;
    pending_at : int Atomic.t;
  }

  type t = {
    shards : shard array;
    drain_batch : int;
    policy : Supervisor.policy;
    seed : int64;
    stop : bool Atomic.t;
    abandon : bool Atomic.t; (* forced shutdown: exit without draining *)
    mutable supervisors : Supervisor.t array; (* [||] until start *)
    mutable shutdown_result : shutdown_result option;
  }

  type handle = { router : t; handles : D.handle array }

  (* Decorrelate per-shard deterministic streams (breaker jitter,
     supervisor backoff jitter) from one run seed: golden-ratio salt per
     shard, as in [hash_key]. *)
  let shard_seed seed i =
    Int64.logxor seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)

  let create ?(shards = 4) ?(queue_depth = 1024) ?(drain_batch = 64)
      ?(max_clients = 64) ?(supervisor = Supervisor.default_policy)
      ?high_frac ?low_frac ?pressure_high ?pressure_low ?breaker
      ?(seed = 42L) () =
    if shards <= 0 then
      invalid_arg "Shard_router.create: shards must be positive";
    if drain_batch <= 0 then
      invalid_arg "Shard_router.create: drain_batch must be positive";
    if max_clients <= 0 then
      invalid_arg "Shard_router.create: max_clients must be positive";
    {
      shards =
        Array.init shards (fun i ->
            {
              (* +2: the shard's updater domain and one setup/monitoring
                 registration beyond the client handles. *)
              table = D.create ~max_threads:(max_clients + 2) ();
              queue = Mod_queue.create ~id:i ~depth:queue_depth ();
              health =
                Health.create ?high_frac ?low_frac ?pressure_high
                  ?pressure_low ~shard:i ~capacity:queue_depth ();
              breaker =
                Breaker.create ?config:breaker ~seed:(shard_seed seed i)
                  ~shard:i ();
              crash_flag = Atomic.make false;
              pending = Atomic.make [||];
              pending_at = Atomic.make 0;
            });
      drain_batch;
      policy = supervisor;
      seed;
      stop = Atomic.make false;
      abandon = Atomic.make false;
      supervisors = [||];
      shutdown_result = None;
    }

  let n_shards t = Array.length t.shards

  (* splitmix64 finalizer: full-avalanche hash so dense key ranges spread
     evenly instead of striping by [key mod shards]. Masked to 62 bits:
     [Int64.to_int] keeps the low 63 bits as a signed value, so anything
     wider could come out negative and index out of bounds. *)
  let hash_key k =
    let open Int64 in
    let z = mul (of_int k) 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    to_int (logand (logxor z (shift_right_logical z 31)) 0x3FFF_FFFF_FFFF_FFFFL)

  let shard_of t k = hash_key k mod Array.length t.shards

  (* Crash injection, consumed only at entry-application boundaries: a
     [crash_updater] request armed while the shard idles fires on the
     first entry of the next batch — always mid-adoption-window, with
     the full remainder in [pending] — which is what makes the chaos
     mutation deterministic. The named fault point covers the
     probabilistic path (REPRO_FAULTS=server.updater.crash=RATE:raise). *)
  let maybe_crash shard =
    if
      Atomic.get shard.crash_flag
      && Atomic.compare_and_set shard.crash_flag true false
    then raise (Fault.Injected (Fault.name fp_crash));
    if Fault.enabled () then Fault.inject fp_crash

  (* Apply one entry through a registered handle and resolve its
     completion — shared by the updater and the shutdown sweep. *)
  let apply_with h (e : Mod_queue.entry) =
    let result =
      match e.op with
      | Mod_queue.Insert (k, v) -> D.insert h k v
      | Mod_queue.Delete k -> D.delete h k
    in
    match e.completion with
    | Some c -> Mod_queue.complete c result
    | None -> ()

  (* A shard whose grace periods stalled within this window reports full
     reclamation pressure regardless of bag depth: the backlog is about
     to grow and nothing will shrink it until the stalled reader moves. *)
  let stall_recent_ns = 200_000_000

  (* Throttle for the updater's pressure poll: walking the reclaimer's
     producer bags on every idle spin would be pure overhead. *)
  let pressure_poll_ns = 1_000_000

  (* Updater body, one incarnation: adopt whatever batch the previous
     incarnation left unapplied, then splice-apply-resolve until [stop]
     (drain first) or [abandon] (exit at the next batch boundary). An
     exception — injected or real — escapes to the supervisor after
     [Fun.protect] frees the RCU slot; [pending]/[pending_at] then hold
     exactly the unapplied remainder for the successor.

     The drain checks each entry's deadline *before* applying it: under
     overload the queue holds work whose clients have already given up,
     and burning updater time on it is the head-of-line death spiral —
     the backlog only ever gets older, so every write waits behind dead
     ones and expires in turn. Expired entries resolve [Expired] without
     touching the tree. Each applied/expired entry also feeds the
     shard's breaker, and the updater is the shard's reclamation-
     pressure observer: it polls the table's retired-backlog pressure
     (maxed to 1.0 while grace periods are recently stalled) into
     [Health] and the [reclaim_pressure] gauge. *)
  let updater t shard () =
    let h = D.register shard.table in
    let idle = Backoff.create () in
    let last_pressure_poll = ref 0 in
    let observe_pressure () =
      let now = Metrics.now_ns () in
      if now - !last_pressure_poll > pressure_poll_ns then begin
        last_pressure_poll := now;
        let p = D.reclaim_pressure shard.table in
        let p =
          if Stall.recently_stalled ~within_ns:stall_recent_ns then
            Float.max p 1.0
          else p
        in
        Health.observe_reclaim_pressure shard.health p;
        if Metrics.enabled () then
          Stats.Timer.record Metrics.reclaim_pressure (Metrics.slot ())
            (int_of_float (p *. 1000.0))
      end
    in
    let apply_entry ~replayed (e : Mod_queue.entry) =
      maybe_crash shard;
      let now = Metrics.now_ns () in
      if
        e.deadline_ns > 0 && now > e.deadline_ns
        && not (Fault.enabled () && Fault.fires bug_skip_deadline)
      then begin
        (* Expired in the queue: complete as [Expired] without applying.
           The client (if waiting) unblocks with the honest verdict, and
           the expiry feeds the breaker window — a queue full of dead
           work is exactly the overload the breaker exists to shed. *)
        (match e.completion with Some c -> Mod_queue.expire c | None -> ());
        if Metrics.enabled () then
          Stats.incr Metrics.writes_expired (Metrics.slot ());
        Breaker.on_failure shard.breaker ~now_ns:now ~probe:e.probe
      end
      else begin
        let result =
          match e.op with
          | Mod_queue.Insert (k, v) -> D.insert h k v
          | Mod_queue.Delete k -> D.delete h k
        in
        (match e.completion with
        | Some c ->
            if replayed then Mod_queue.complete_replayed c result
            else Mod_queue.complete c result
        | None -> ());
        Breaker.on_success shard.breaker ~now_ns:(Metrics.now_ns ())
          ~probe:e.probe
      end
    in
    let apply_pending ~replayed =
      let arr = Atomic.get shard.pending in
      while Atomic.get shard.pending_at < Array.length arr do
        let i = Atomic.get shard.pending_at in
        apply_entry ~replayed arr.(i);
        (* Advance only after the entry applied: a crash between the
           apply and this store re-applies that entry, which is
           idempotent at the dictionary level (insert/delete of the same
           key converge) — the loss direction is the one that matters.
           A replayed entry resolves [Replayed], the honest status: the
           predecessor may already have applied it, so its boolean is
           only "as of the last application". The completion store sits
           before the cursor advance, so a crash after it re-delivers
           the original result ([complete] never overwrites). *)
        Atomic.set shard.pending_at (i + 1)
      done;
      (* Reset [pending] before the cursor: a concurrent forced-shutdown
         reader then sees either the empty array (nothing to abort) or
         the old one with an honest cursor — never applied entries
         counted as lost. *)
      Atomic.set shard.pending [||];
      Atomic.set shard.pending_at 0
    in
    let run () =
      (* A non-empty [pending] here is a crashed predecessor's adopted
         batch: every remaining entry resolves [Replayed] — unless the
         seeded bug drops it, losing accepted writes. *)
      if
        Fault.enabled ()
        && Array.length (Atomic.get shard.pending) > 0
        && Fault.fires bug_forget_backlog
      then begin
        Atomic.set shard.pending [||];
        Atomic.set shard.pending_at 0
      end;
      apply_pending ~replayed:true;
      let rec loop () =
        if not (Atomic.get t.abandon) then begin
          let batch = Mod_queue.drain shard.queue ~max:t.drain_batch in
          if Array.length batch = 0 then begin
            if not (Atomic.get t.stop) then begin
              observe_pressure ();
              Backoff.once idle;
              loop ()
            end
          end
          else begin
            Backoff.reset idle;
            Atomic.set shard.pending_at 0;
            Atomic.set shard.pending batch;
            apply_pending ~replayed:false;
            Health.observe_depth shard.health (Mod_queue.length shard.queue);
            observe_pressure ();
            loop ()
          end
        end
      in
      loop ()
    in
    Fun.protect ~finally:(fun () -> D.unregister h) run

  (* Abort the completions of an unapplied pending remainder; returns the
     number of accepted writes counted lost. Callable from the updater
     chain itself ([on_failed]), after joining it (forced shutdown), or —
     with [~clear:false] — against a wedged, abandoned updater: the
     atomics make the snapshot race-free and [Mod_queue.abort]'s CAS
     loses to any completion the wedged domain still delivers, so a
     waiter gets exactly one of {result, aborted}. Only the owning chain
     may clear the fields; clearing under a live updater would fight its
     cursor. *)
  let abort_pending ?(clear = true) shard =
    let arr = Atomic.get shard.pending in
    let at = Atomic.get shard.pending_at in
    let lost = ref 0 in
    for i = at to Array.length arr - 1 do
      (match arr.(i).Mod_queue.completion with
      | Some c -> Mod_queue.abort c
      | None -> ());
      incr lost
    done;
    if clear then begin
      Atomic.set shard.pending [||];
      Atomic.set shard.pending_at 0
    end;
    if !lost > 0 && Metrics.enabled () then
      Stats.add Metrics.writes_lost (Metrics.slot ()) !lost;
    !lost

  (* Drain-and-apply whatever remains in a shard's queue once its
     updater chain has exited (graceful shutdown) or never existed
     (shutdown before [start]). The queue is closed by then, so the
     backlog is finite and this domain is the shard's only writer:
     [Drained] keeps its meaning — every accepted write applied, every
     completion resolved — even for a producer that won admission
     against the closing shutdown and landed its entry after the
     updater's final empty drain. *)
  let sweep_stragglers t s =
    if Mod_queue.length s.queue > 0 then begin
      let h = D.register s.table in
      Fun.protect
        ~finally:(fun () -> D.unregister h)
        (fun () ->
          let rec go () =
            let batch = Mod_queue.drain s.queue ~max:t.drain_batch in
            if Array.length batch > 0 then begin
              Array.iter (apply_with h) batch;
              go ()
            end
          in
          go ())
    end

  let start t =
    if Array.length t.supervisors = 0 && not (Atomic.get t.stop) then
      t.supervisors <-
        Array.mapi
          (fun i s ->
            Supervisor.start ~policy:t.policy
              ~jitter_seed:(shard_seed t.seed (i + Array.length t.shards))
              ~on_crash:(fun _ ->
                (* Every crash trips the breaker: the replacement updater
                   must be re-offered load on the breaker's probe
                   schedule, not swamped the instant it adopts the
                   backlog. *)
                Breaker.on_crash s.breaker ~now_ns:(Metrics.now_ns ()))
              ~shard:i
              ~abort:(fun () -> Atomic.get t.abandon)
              ~on_failed:(fun _ ->
                if Health.mark_failed s.health then begin
                  (* Close before purging: [close] wins the queue lock,
                     so a producer that passed the Health check before
                     the [Failed] CAS either landed its entry — swept by
                     this purge — or gets [Admit_closed] and reports
                     [Failed]. No entry can be stranded in a queue no
                     updater will ever drain again, so no waiter spins
                     forever. *)
                  Mod_queue.close s.queue;
                  ignore (Mod_queue.purge s.queue);
                  ignore (abort_pending s)
                end)
              (updater t s))
          t.shards

  let crash_updater t i = Atomic.set t.shards.(i).crash_flag true

  let forced_grace_ns = 100_000_000

  let shutdown ?(deadline_ns = 5_000_000_000) t =
    match t.shutdown_result with
    | Some r -> r
    | None ->
        Atomic.set t.stop true;
        (* Close admission under each queue lock: a producer that raced
           past the [stop] check has either landed its entry before the
           close — applied by the sweep below — or gets [Admit_closed]
           and reports [Shutdown]. Updater drains are unaffected. *)
        Array.iter (fun s -> Mod_queue.close s.queue) t.shards;
        let sups = t.supervisors in
        let r =
          if Array.length sups = 0 then begin
            (* Never started: apply the pre-start backlog here rather
               than stranding its waiters in queues no updater will ever
               drain. *)
            Array.iter (fun s -> sweep_stragglers t s) t.shards;
            Drained
          end
          else begin
            let finished_all () = Array.for_all Supervisor.finished sups in
            let wait_until limit =
              let rec go () =
                finished_all ()
                || Metrics.now_ns () < limit
                   && begin
                        Unix.sleepf 0.0005;
                        go ()
                      end
              in
              go ()
            in
            if wait_until (Metrics.now_ns () + deadline_ns) then begin
              Array.iter Supervisor.join sups;
              Array.iter (fun s -> sweep_stragglers t s) t.shards;
              Drained
            end
            else begin
              (* Deadline blown: force-stop. Updaters exit at their next
                 batch boundary instead of draining; give them a short
                 grace so "slow" is distinguished from "wedged", then
                 purge what remains and report per shard. A wedged
                 updater's spliced-but-unapplied batch is aborted too —
                 [Mod_queue.abort] only wins a completion's CAS from
                 Pending, so each waiter either got its real result from
                 the wedged domain or unblocks with a typed reject here,
                 and the batch counts into [lost]. The abandoned domain
                 may still apply some of those entries later, so after
                 [Forced] the tree contents are best-effort
                 (ROBUSTNESS.md, "Serving-layer failure model"). *)
              Atomic.set t.abandon true;
              ignore (wait_until (Metrics.now_ns () + forced_grace_ns));
              let reports = ref [] in
              Array.iteri
                (fun i sup ->
                  let s = t.shards.(i) in
                  let fin = Supervisor.finished sup in
                  if fin then Supervisor.join sup;
                  let depth = Mod_queue.length s.queue in
                  let lost_q = Mod_queue.purge s.queue in
                  let lost_p = abort_pending ~clear:fin s in
                  let lost = lost_q + lost_p in
                  if (not fin) || lost > 0 then begin
                    let rep =
                      {
                        shard = i;
                        queue_depth = depth;
                        last_drain_ns = Mod_queue.last_drain_ns s.queue;
                        crashes = Supervisor.crashes sup;
                        lost;
                        wedged = not fin;
                      }
                    in
                    Printf.eprintf
                      "repro_server: forced shutdown: shard %d%s: depth %d, \
                       %d accepted writes lost, last drain %.1f ms ago, %d \
                       crashes\n\
                       %!"
                      i
                      (if fin then "" else " (updater wedged, abandoned)")
                      depth lost
                      (float_of_int (Metrics.now_ns () - rep.last_drain_ns)
                      /. 1e6)
                      rep.crashes;
                    reports := rep :: !reports
                  end)
                sups;
              match List.rev !reports with [] -> Drained | rs -> Forced rs
            end
          end
        in
        (* Stop each table's background reclaimer (a no-op for tables
           without one): pending call_rcu unlinks and frees run before we
           return, so [check]/[size] after shutdown see a quiescent tree.
           After [Forced] an abandoned updater may still retire nodes —
           the stopped reclaimer routes those to inline frees. *)
        Array.iter (fun s -> D.shutdown s.table) t.shards;
        t.shutdown_result <- Some r;
        r

  let register t =
    let n = Array.length t.shards in
    let handles = Array.make n None in
    (try
       Array.iteri
         (fun i s -> handles.(i) <- Some (D.register s.table))
         t.shards
     with e ->
       (* Don't leak the registrations that did succeed. *)
       Array.iter (function Some h -> D.unregister h | None -> ()) handles;
       raise e);
    {
      router = t;
      handles = Array.map (function Some h -> h | None -> assert false) handles;
    }

  let unregister h = Array.iter D.unregister h.handles

  let get h k = D.contains h.handles.(shard_of h.router k) k
  let mem h k = D.mem h.handles.(shard_of h.router k) k

  (* Admission: shutdown and failure are permanent rejects; a write
     already past its deadline is refused dead-on-arrival; the breaker
     gates what is left (its probe verdicts ride into the queue on the
     entry); a Degraded shard sheds fire-and-forget writes (nobody is
     waiting — dropping them is what lets the queue drain) while
     admitting waited ones (their waiter is the natural backpressure)
     and probes (the breaker cannot close without them); the queue
     bound rejects the rest. Sheds, full-queue rejects and expiries all
     feed the breaker's failure window — persistent per-request
     backpressure is what converts into an open breaker. The health
     observations happen on this path because the producers are the
     domains still alive when an updater wedges. *)
  let enqueue h k ~waited ?completion ?(deadline_ns = 0) op =
    let t = h.router in
    if Atomic.get t.stop then Error Shutdown
    else begin
      let s = t.shards.(shard_of t k) in
      let depth = Mod_queue.length s.queue in
      Health.observe_depth s.health depth;
      let now = Metrics.now_ns () in
      let thr = Mod_queue.stall_threshold_ns () in
      if thr > 0 && depth > 0 && now - Mod_queue.last_drain_ns s.queue > thr
      then Health.note_stall s.health;
      match Health.state s.health with
      | Health.Failed -> Error Failed
      | (Health.Degraded | Health.Healthy) as hs ->
          if deadline_ns > 0 && now > deadline_ns then begin
            (* Dead on arrival — the deadline passed before admission
               (typically backed-off retries under overload). Refusing
               here is free; admitting would make the updater drain
               work no one wants. *)
            if Metrics.enabled () then
              Stats.incr Metrics.writes_expired (Metrics.slot ());
            Breaker.on_failure s.breaker ~now_ns:now ~probe:false;
            Error Expired
          end
          else begin
            match Breaker.admit s.breaker ~now_ns:now with
            | Breaker.Reject -> Error Breaker_open
            | verdict -> (
                let probe = verdict = Breaker.Probe in
                if hs = Health.Degraded && (not waited) && not probe then begin
                  if Metrics.enabled () then
                    Stats.incr Metrics.writes_shed (Metrics.slot ());
                  Breaker.on_failure s.breaker ~now_ns:now ~probe:false;
                  Error Overload
                end
                else
                  match
                    Mod_queue.enqueue s.queue ?completion ~deadline_ns ~probe
                      op
                  with
                  | Mod_queue.Admitted -> Ok ()
                  | Mod_queue.Admit_full ->
                      Breaker.on_failure s.breaker ~now_ns:now ~probe;
                      Error Full
                  | Mod_queue.Admit_closed ->
                      (* A failure path or shutdown closed the queue after
                         our stop/Health checks passed ([close] is taken
                         under the queue lock, so this entry provably did
                         not land). Report the cause, not backpressure. A
                         claimed probe slot is released as a failure so it
                         cannot leak the Half_open episode. *)
                      if probe then
                        Breaker.on_failure s.breaker ~now_ns:now ~probe;
                      if Health.state s.health = Health.Failed then
                        Error Failed
                      else Error Shutdown)
          end
    end

  let insert h ?deadline_ns k v =
    enqueue h k ~waited:false ?deadline_ns (Mod_queue.Insert (k, v))

  let delete h ?deadline_ns k =
    enqueue h k ~waited:false ?deadline_ns (Mod_queue.Delete k)

  (* A waited write whose completion aborts was accepted and then
     discarded by a failure path; report it as the reject that caused
     the discard. *)
  let aborted_reject h k =
    let s = h.router.shards.(shard_of h.router k) in
    if Health.state s.health = Health.Failed then Error Failed
    else Error Shutdown

  let await_result h k c =
    match Mod_queue.await c with
    | Mod_queue.Done r -> Ok (Applied r)
    | Mod_queue.Replayed r -> Ok (Replayed r)
    | Mod_queue.Expired -> Error Expired
    | Mod_queue.Aborted | Mod_queue.Pending -> aborted_reject h k

  let insert_wait h ?deadline_ns k v =
    let c = Mod_queue.completion () in
    match
      enqueue h k ~waited:true ~completion:c ?deadline_ns
        (Mod_queue.Insert (k, v))
    with
    | Error _ as e -> e
    | Ok () -> await_result h k c

  let delete_wait h ?deadline_ns k =
    let c = Mod_queue.completion () in
    match
      enqueue h k ~waited:true ~completion:c ?deadline_ns (Mod_queue.Delete k)
    with
    | Error _ as e -> e
    | Ok () -> await_result h k c

  let load h k v = D.insert h.handles.(shard_of h.router k) k v

  let queue_stats t = Array.map (fun s -> Mod_queue.stats s.queue) t.shards

  let health t = Array.map (fun s -> Health.state s.health) t.shards

  let breaker_states t = Array.map (fun s -> Breaker.state s.breaker) t.shards

  let breaker_trips t =
    Array.fold_left (fun acc s -> acc + Breaker.trips s.breaker) 0 t.shards

  let breaker_rejects t =
    Array.fold_left (fun acc s -> acc + Breaker.rejects s.breaker) 0 t.shards

  let reclaim_pressures t =
    Array.map (fun s -> D.reclaim_pressure s.table) t.shards

  let pressure_latched t =
    Array.map (fun s -> Health.pressure_latched s.health) t.shards

  (* Chaos seam: hold an RCU read section open on shard [i]'s table for
     the duration of [f] — from the calling domain, via a throwaway
     registration. While [f] runs, no grace period on that shard can
     complete, so its retired backlog only grows: the stall-reader chaos
     scenario drives admission control with exactly the pathology the
     reclamation-pressure path exists for. *)
  let with_shard_reader t i f =
    let s = t.shards.(i) in
    let h = D.register s.table in
    Fun.protect
      ~finally:(fun () -> D.unregister h)
      (fun () -> D.with_reader h f)

  let crashes t = Array.map Supervisor.crashes t.supervisors

  let restarts t = Array.map Supervisor.restarts t.supervisors

  let restart_latencies_ns t =
    Array.fold_left
      (fun acc sup -> Supervisor.restart_latencies_ns sup @ acc)
      [] t.supervisors

  let drained t =
    Array.fold_left
      (fun acc s -> acc + (Mod_queue.stats s.queue).Mod_queue.drained)
      0 t.shards

  let size t = Array.fold_left (fun acc s -> acc + D.size s.table) 0 t.shards
  let check t = Array.iter (fun s -> D.check s.table) t.shards

  let to_list t =
    List.sort compare
      (Array.fold_left (fun acc s -> D.to_list s.table @ acc) [] t.shards)
end
