(* call_rcu over per-producer, epoch-tagged retired bags — the one
   deferred-reclamation path (contract in the .mli). A bag is a
   single-producer ring of (callback, [read_gp_seq] cookie) entries,
   freed after a grace period covering the cookie by the background
   reclaimer domain or, inline, by the producer itself: the
   rcu_free/call_rcu discipline of the kernel and of oscarlab/versioning
   (SNIPPETS.md §3).

   Crash tolerance, shard-updater style (lib/server/shard_router.ml): a
   crashed background incarnation leaves the gathered-but-unfreed
   remainder in [pending]/[pending_at], and the next one resumes from the
   cursor — a retired pointer is never lost. Past [max_restarts] the
   reclaimer is declared dead, producers free inline, and [stop] frees
   whatever remains. *)

module Fault = Repro_fault.Fault
module Metrics = Repro_sync.Metrics
module Stats = Repro_sync.Stats
module Trace = Repro_sync.Trace
module Backoff = Repro_sync.Backoff
module San = Repro_sanitizer.Sanitizer

(* Process-global mode switch and tuning defaults, the [Gp.set_coalescing]
   idiom: one flag consulted at structure-creation time lets the same
   binary A/B inline-synchronize against call_rcu deletes (bench `reclaim`,
   `citrus_tool --call-rcu`) without threading a parameter through every
   DICT constructor. *)

let call_rcu_flag = Atomic.make false

let set_call_rcu b = Atomic.set call_rcu_flag b
let call_rcu_enabled () = Atomic.get call_rcu_flag

(* Environment arming, mirroring REPRO_SANITIZE / REPRO_LOCKDEP: any
   binary can route reclamation through call_rcu without code changes. *)
let () =
  match Sys.getenv_opt "REPRO_CALL_RCU" with
  | Some ("1" | "true" | "yes" | "on") -> set_call_rcu true
  | Some _ | None -> ()

let default_batch = Atomic.make 64
let default_watermark = Atomic.make 1024

let set_batch n =
  if n <= 0 then invalid_arg "Reclaimer.set_batch: batch must be positive";
  Atomic.set default_batch n

let batch () = Atomic.get default_batch

let set_watermark n =
  if n <= 0 then
    invalid_arg "Reclaimer.set_watermark: watermark must be positive";
  Atomic.set default_watermark n

let watermark () = Atomic.get default_watermark

(* How long one grace-period wait may run before [pressure] reports the
   instance saturated. Bag depth alone cannot see a stalled reader: the
   first blocked unlink continuation holds its node locks, updaters
   convoy on those locks and stop retiring, and the bags sit nearly
   empty while reclamation is wedged — the chaos stall-reader scenario.
   A healthy grace period is microseconds to low milliseconds, so 10 ms
   of blocking means readers have stopped completing, not that the
   reclaimer is merely busy. *)
let default_gp_stall_ns = Atomic.make 10_000_000

let set_gp_stall_ns n =
  if n <= 0 then
    invalid_arg "Reclaimer.set_gp_stall_ns: threshold must be positive";
  Atomic.set default_gp_stall_ns n

let gp_stall_ns () = Atomic.get default_gp_stall_ns

(* Seeded bug (ROBUSTNESS.md, "Mutation suite"): when it fires, the
   reclaimer frees without waiting for the retired pointer's grace period
   — the early-free bug class the whole cookie discipline exists to
   prevent; the sanitizer must turn it into a [San.Violation]. *)
let bug_early_free = Fault.register "bug.reclaimer.early_free"

(* Fault point: fires at the top of every reclaim pass, before anything is
   gathered out of the bags — a raise action kills the incarnation at the
   one boundary where no retired pointer is in flight, which is what makes
   the crash-recovery test deterministic about not losing any. *)
let fault_crash = Fault.register "rcu.reclaim.crash"

(* Fault point: when it fires, an inline drain pays a second (redundant
   but harmless) grace period — the "extra grace period" fault that
   shakes out callers accidentally relying on drain count = grace-period
   count. *)
let fault_flush = Fault.register "defer.flush"

(* How long a producer spins on a full bag before falling back to an
   inline free. Exponential backoff, so this bounds the wait at roughly a
   millisecond — long enough for a live reclaimer to make room, short
   enough that a wedged one (or a self-enqueue from the reclaimer's own
   callbacks) degrades to the synchronous path instead of deadlocking. *)
let backpressure_spins = 64

module Make (R : Rcu_intf.S) = struct
  type item = { run : unit -> unit; cookie : R.gp_state }

  (* A single-producer bag: the owning domain appends (slot store, then
     head bump), the reclaimer domain consumes (slot clear, then tail
     bump). Slot count = [watermark]; [head]/[tail] are totals, the slot
     index is the total mod capacity. The store orders guarantee a
     consumer that observes the head bump also observes the slot, and a
     producer that observes head - tail < capacity finds its slot
     cleared. *)
  type producer = {
    ring : item option Atomic.t array;
    head : int Atomic.t; (* total enqueued *)
    tail : int Atomic.t; (* total consumed *)
  }

  type t = {
    rcu : R.t;
    background : bool; (* a reclaimer domain drains the bags *)
    batch : int;
    capacity : int; (* per-bag watermark *)
    max_restarts : int;
    producers : producer list Atomic.t;
    stop : bool Atomic.t;
    dead : bool Atomic.t; (* restart budget exhausted *)
    batches : int Atomic.t;
    crashes : int Atomic.t;
    backpressure : int Atomic.t; (* full-bag producer waits *)
    (* Timestamp (ns) of the oldest in-flight grace-period wait, 0 when
       none is blocked. Set by whichever domain (reclaimer or an
       inline-freeing producer) first blocks in [cond_synchronize];
       [pressure] reads it to detect a stalled grace period that bag
       depth cannot show. *)
    blocked_since : int Atomic.t;
    (* The batch gathered out of the bags and how far freeing progressed —
       the crash-holdover protocol of the shard updater: an incarnation
       that dies mid-batch leaves exactly the unfreed remainder here for
       its successor. Only the reclaimer's (single) domain writes these
       while it lives; [stop] reads them after the join. *)
    pending : item array Atomic.t;
    pending_at : int Atomic.t;
    domain_id : int Atomic.t; (* reclaimer domain's id, -1 until spawned *)
    mutable domain : unit Domain.t option;
  }

  let new_producer t =
    let slots = if t.background then t.capacity else t.batch in
    let p =
      {
        ring = Array.init slots (fun _ -> Atomic.make None);
        head = Atomic.make 0;
        tail = Atomic.make 0;
      }
    in
    let rec add () =
      let ps = Atomic.get t.producers in
      if not (Atomic.compare_and_set t.producers ps (p :: ps)) then add ()
    in
    add ();
    p

  let bag_depth p = Atomic.get p.head - Atomic.get p.tail

  let pending t =
    List.fold_left
      (fun acc p -> acc + bag_depth p)
      (Array.length (Atomic.get t.pending) - Atomic.get t.pending_at)
      (Atomic.get t.producers)

  let capacity t = t.capacity

  (* Backlog pressure for admission control: the fullest bag's fill
     fraction (the bag about to engage producer backpressure), plus the
     held-over batch — not the bag-count-diluted total, which would hide
     one wedged producer behind many idle ones — plus 1.0 whenever a
     grace-period wait has been blocked past [gp_stall_ns]. The stall
     term is what makes a parked reader visible: its first blocked
     unlink continuation holds node locks, updaters convoy on them and
     stop retiring, so the bags stay nearly empty exactly when
     reclamation is most wedged. Racy snapshot; > 1.0 means saturated
     (a stalled grace period, or a held-over batch on a full bag). An
     inline reclaimer has no backlog to report: its producers pay for
     their grace periods as they retire, which throttles them directly. *)
  let pressure t =
    if not t.background then 0.0
    else begin
      let hot =
        List.fold_left (fun acc p -> max acc (bag_depth p)) 0
          (Atomic.get t.producers)
      in
      let held =
        Array.length (Atomic.get t.pending) - Atomic.get t.pending_at
      in
      let base =
        float_of_int (max 0 hot + max 0 held) /. float_of_int t.capacity
      in
      let since = Atomic.get t.blocked_since in
      if since > 0 && Metrics.now_ns () - since > gp_stall_ns () then
        base +. 1.0
      else base
    end

  (* Grace-period wait with stall bookkeeping: the first domain to block
     claims [blocked_since] (CAS from 0) and clears it when the wait
     returns — including by exception ([Stall.Stalled] in fail mode, a
     lockdep violation). Concurrent waiters past the first don't extend
     the window; good enough for a monitoring signal. *)
  let timed_synchronize t cookie =
    if not (R.poll t.rcu cookie) then begin
      let claimed =
        Atomic.compare_and_set t.blocked_since 0 (Metrics.now_ns ())
      in
      Fun.protect
        ~finally:(fun () ->
          if claimed then Atomic.set t.blocked_since 0)
        (fun () -> R.cond_synchronize t.rcu cookie)
    end

  (* Consumer side; single-threaded (the reclaimer domain, or [stop] after
     the join). *)
  let take p =
    let tl = Atomic.get p.tail in
    if tl >= Atomic.get p.head then None
    else begin
      let i = tl mod Array.length p.ring in
      match Atomic.get p.ring.(i) with
      | None -> None (* head bumped, slot store not yet visible: skip *)
      | Some it ->
          Atomic.set p.ring.(i) None;
          Atomic.set p.tail (tl + 1);
          Some it
    end

  (* The seeded early-free mutant skips the wait — that free races
     pre-existing readers, which is what the sanitizer catches. *)
  let wait t cookie =
    if not (Fault.enabled () && Fault.fires bug_early_free) then
      timed_synchronize t cookie

  (* The elision path: most items in a batch share (or trail) the first
     item's grace period, so after one real wait the rest are satisfied
     [poll]s. *)
  let free_item t it =
    wait t it.cookie;
    it.run ()

  let note_batch t ~depth n =
    let s = Metrics.slot () in
    Stats.incr Metrics.reclaim_batches s;
    (* Depth sample, not a duration: mean/max backlog in snapshots. *)
    Stats.Timer.record Metrics.reclaim_backlog s depth;
    Atomic.incr t.batches;
    Trace.record Reclaim n

  (* Free the held-over batch, advancing the cursor only after each item
     so a crash resumes exactly where this incarnation stopped. *)
  let run_pending t =
    let arr = Atomic.get t.pending in
    while Atomic.get t.pending_at < Array.length arr do
      let i = Atomic.get t.pending_at in
      free_item t arr.(i);
      Atomic.set t.pending_at (i + 1)
    done;
    Atomic.set t.pending [||];
    Atomic.set t.pending_at 0

  (* One reclaim pass: finish any held-over batch, then gather up to
     [batch] items across the bags and free them. Returns false when the
     bags were empty. *)
  let reclaim_once t =
    if Fault.enabled () then Fault.inject fault_crash;
    run_pending t;
    let ps = Atomic.get t.producers in
    let depth = List.fold_left (fun acc p -> acc + bag_depth p) 0 ps in
    if depth = 0 then false
    else begin
      let buf = ref [] in
      let n = ref 0 in
      let rec gather p =
        if !n < t.batch then
          match take p with
          | Some it ->
              buf := it :: !buf;
              incr n;
              gather p
          | None -> ()
      in
      List.iter gather ps;
      Atomic.set t.pending (Array.of_list (List.rev !buf));
      Atomic.set t.pending_at 0;
      run_pending t;
      note_batch t ~depth !n;
      true
    end

  let rec loop t =
    if reclaim_once t then loop t
    else if not (Atomic.get t.stop) then begin
      (* Idle: sleep rather than spin — an idle tree's reclaimer must not
         burn a core. 200us bounds the added reclamation latency, which
         nothing waits on. *)
      Unix.sleepf 0.0002;
      loop t
    end
  (* else: stopping and every bag is empty — exit, [stop] joins us. *)

  let supervise t () =
    Atomic.set t.domain_id (Domain.self () :> int);
    let rec go () =
      match loop t with
      | () -> ()
      | exception e ->
          Atomic.incr t.crashes;
          if Atomic.get t.crashes > t.max_restarts then begin
            Atomic.set t.dead true;
            Printf.eprintf
              "repro_rcu: reclaimer (%s) past restart budget (%d): %s — \
               falling back to inline frees\n\
               %!"
              R.name t.max_restarts (Printexc.to_string e)
          end
          else go ()
    in
    go ()

  let create ?batch:b ?watermark:w ?(max_restarts = 8) ?(background = true)
      rcu =
    let batch = match b with Some b -> b | None -> batch () in
    let capacity = match w with Some w -> w | None -> watermark () in
    if batch <= 0 then invalid_arg "Reclaimer.create: batch must be positive";
    if capacity <= 0 then
      invalid_arg "Reclaimer.create: watermark must be positive";
    let t =
      {
        rcu;
        background;
        batch;
        capacity;
        max_restarts;
        producers = Atomic.make [];
        stop = Atomic.make false;
        dead = Atomic.make false;
        batches = Atomic.make 0;
        crashes = Atomic.make 0;
        backpressure = Atomic.make 0;
        blocked_since = Atomic.make 0;
        pending = Atomic.make [||];
        pending_at = Atomic.make 0;
        domain_id = Atomic.make (-1);
        domain = None;
      }
    in
    if background then t.domain <- Some (Domain.spawn (supervise t));
    t

  let push p it =
    let i = Atomic.get p.head mod Array.length p.ring in
    Atomic.set p.ring.(i) (Some it);
    Atomic.incr p.head;
    Stats.incr Metrics.call_rcu_enqueued (Metrics.slot ())

  (* Inline drain, on the producer's own domain: empty the bag, wait once
     on the newest cookie ([read_gp_seq] is monotonic, so it covers the
     batch), run the batch oldest first. Callbacks that retire further
     work land in the emptied bag for the next round. False on an empty
     bag, which pays no grace period. *)
  let flush t p =
    let rec gather acc =
      match take p with Some it -> gather (it :: acc) | None -> acc
    in
    match gather [] with
    | [] -> false
    | newest :: _ as newest_first ->
        let depth = List.length newest_first in
        wait t newest.cookie;
        if Fault.enabled () && Fault.fires fault_flush then
          R.synchronize t.rcu;
        List.iter (fun it -> it.run ()) (List.rev newest_first);
        note_batch t ~depth depth;
        true

  let drain t p = if not t.background then while flush t p do () done

  (* [shadow] is Deferred at enqueue — before the bag is touched, so a
     double retire is rejected with the bag unchanged — and Reclaimed when
     the callback finally runs after its grace period, on whichever
     domain frees it. *)
  let call_rcu t p ?shadow f =
    let f =
      match shadow with
      | None -> f
      | Some s ->
          San.on_defer s ~gp:(R.gp_cookie t.rcu);
          fun () ->
            San.on_reclaim ~gp:(R.gp_cookie t.rcu) s;
            f ()
    in
    let it = { run = f; cookie = R.read_gp_seq t.rcu } in
    if Atomic.get t.dead || Atomic.get t.stop then free_item t it
    else if not t.background then begin
      push p it;
      if bag_depth p >= t.batch then ignore (flush t p)
    end
    else begin
      let b = Backoff.create () in
      let rec admit spins engaged =
        if Atomic.get t.dead then begin
          if engaged then Atomic.incr t.backpressure;
          free_item t it
        end
        else if bag_depth p >= t.capacity then
          if spins >= backpressure_spins then begin
            (* Watermark held past the bounded wait: free inline rather
               than grow without bound (or deadlock a reclaimer callback
               retiring into its own full bag). *)
            Atomic.incr t.backpressure;
            free_item t it
          end
          else begin
            Backoff.once b;
            admit (spins + 1) true
          end
        else begin
          push p it;
          if engaged then Atomic.incr t.backpressure
        end
      in
      admit 0 false
    end

  (* Teardown: close the gate (late retirers go inline), join the
     reclaimer — it exits once stopping and empty — then sweep whatever a
     dead reclaimer, or an undrained inline bag, left behind. After [stop]
     returns every retired pointer has been freed, which is what the
     sanitizer's [audit] checks in the lifecycle tests. Callers must have
     quiesced their producers first (Citrus does this by stopping at
     tree-shutdown time, after all handles unregistered). *)
  let stop t =
    if not (Atomic.get t.stop) then begin
      Atomic.set t.stop true;
      (match t.domain with Some d -> Domain.join d | None -> ());
      t.domain <- None;
      run_pending t;
      let rec sweep p =
        match take p with
        | Some it ->
            free_item t it;
            sweep p
        | None -> ()
      in
      List.iter sweep (Atomic.get t.producers)
    end

  let on_reclaimer_domain t =
    (Domain.self () :> int) = Atomic.get t.domain_id

  let stopped t = Atomic.get t.stop
  let batches t = Atomic.get t.batches
  let crashes t = Atomic.get t.crashes
  let backpressure_waits t = Atomic.get t.backpressure
  let alive t = (not (Atomic.get t.dead)) && not (Atomic.get t.stop)
end
