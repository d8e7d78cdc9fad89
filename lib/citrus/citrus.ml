module Spinlock = Repro_sync.Spinlock
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep

(* The delete-with-two-children window (paper, Section 4): between
   publishing the successor copy and unlinking the original, readers can
   see the key twice. Stretching this window is how fault runs shake out
   ordering bugs, so it gets its own injection point. Registered outside
   the functor: one point shared by every instantiation. *)
let fault_delete_window = Fault.register "citrus.delete.window"

(* Fires at every node visit of the wait-free search, while the traversal
   holds only the read lock (never node locks, so a [raise] action unwinds
   cleanly through get's exception handler). Parking a reader
   mid-traversal with a delay action is how the mutation suite makes a
   broken grace period reclaim the very node the reader stands on. *)
let fault_read_step = Fault.register "citrus.read.step"

(* Seeded bugs for the lockdep validator (ROBUSTNESS.md, "Mutation
   suite"): each point seeds one locking-protocol bug into the real update
   paths — an inverted lock order in delete, a grace-period wait from
   inside a read-side critical section, and an unlock of a lock the caller
   never took. A lockdep-armed run must turn each into a structured
   [Lockdep.Violation]; with lockdep disarmed an ABBA delete would
   deadlock and a sync-in-read would self-deadlock, so only the
   single-domain, lockdep-armed mutant hunts arm them. *)
let bug_abba_delete = Fault.register "bug.citrus.abba_delete"
let bug_sync_in_read = Fault.register "bug.citrus.sync_in_read"
let bug_unbalanced_unlock = Fault.register "bug.citrus.unbalanced_unlock"

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(* Directions of the paper's child[direction]: [left] selects a node's
   [left]/[ltag] pair, [right] its [right]/[rtag] pair. The search
   direction comes from Citrus_proto, shared with the model checker
   (lib/modelcheck). *)
let left = Citrus_proto.left
let right = Citrus_proto.right

module Make (K : ORDERED) (R : Repro_rcu.Rcu.S) = struct
  module Rec = Repro_rcu.Reclaimer.Make (R)

  (* One *ordered* lockdep class for every node lock of every tree built
     from this instantiation. The locking protocol (paper, Section 3) only
     ever takes node locks top-down along one search path, so each
     acquisition carries its depth-rank as the order token:
     prev=0, curr=1, prev_succ=2, succ=3, freshly published copy=4 (and
     p=0, n=1, c=2 in rotations). Armed, lockdep flags any acquisition
     whose rank does not exceed every held rank in this class — the ABBA
     schedule — on its *first* occurrence, before the schedule has to
     actually deadlock against a second domain. *)
  let node_cls =
    Lockdep.new_class ~ordered:true Lockdep.Tree_node ("citrus/" ^ R.name)

  (* One block holds everything a traversal reads: the key unboxed, and
     each child link an atomic whose payload is the child block itself,
     with [Nil] (an immediate) for the paper's null. A search level is
     thus node -> link atomic -> next node.

     The paper's two dummies (Section 2) shrink to one: the tree is
     anchored at a [Sentinel] standing for the infinity key, and every
     real node lives in its left subtree. [get] starts below it, so no
     key is ever compared against a sentinel; the sentinel is only ever
     the [prev] of an update at the top of the tree, which is why it
     carries a lock and a tag. The paper's -1 root would never be [prev]
     for a real key, so it is gone. *)
  type 'v node =
    | Nil
    | Sentinel of {
        left : 'v node Atomic.t; (* the whole tree *)
        ltag : int Atomic.t;
        lock : Spinlock.t;
      }
    | Node of {
        key : K.t; (* never changes (Section 2) *)
        value : 'v option; (* always Some; never changes *)
        left : 'v node Atomic.t;
        right : 'v node Atomic.t;
        ltag : int Atomic.t;
        rtag : int Atomic.t;
            (* Per-child ABA tags, atomics because get reads prev's tag
               inside the read-side critical section while updates bump
               it under the node lock. *)
        mutable marked : bool; (* accessed only under [lock] *)
        lock : Spinlock.t;
        mutable shadow : San.record option;
            (* Reclamation-sanitizer record, attached by [retire] while
               the sanitizer is armed; None otherwise. *)
      }

  type hooks = {
    mutable on_restart : unit -> unit;
    mutable between_get_and_lock : unit -> unit;
    mutable after_find_successor : unit -> unit;
    mutable before_synchronize : unit -> unit;
  }

  type 'v t = {
    root : 'v node; (* the Sentinel *)
    rcu : R.t;
    armed : bool;
        (* The sanitizer was armed at [create]: unlinked nodes are retired
           through [reclaimer] with shadow records, and the successor walk
           runs inside a read-side critical section. *)
    reclaimer : Rec.t option;
        (* Some iff [armed] or call_rcu. A call_rcu tree's reclaimer has a
           background domain, to which two-child deletes hand their
           grace-period-then-unlink continuation instead of blocking
           inline; otherwise each handle drains its own bag inline. *)
    self_bag : Rec.producer option;
        (* Some iff call_rcu: the retired bag owned by the reclaimer
           domain itself. Unlink continuations running there retire the
           unlinked successor into it (a fresh post-unlink cookie)
           instead of blocking the reclaimer on a second grace period. *)
    san : San.domain;
    hooks : hooks;
    group : Stats.group;
    restarts : Stats.t;
    inserts : Stats.t;
    deletes_one_child : Stats.t;
    deletes_two_children : Stats.t;
    reclaimed_nodes : Stats.t;
    rotations : Stats.t;
    handle_ids : int Atomic.t;
  }

  type 'v handle = {
    tree : 'v t;
    rt : R.thread;
    id : int;
    bag : Rec.producer option; (* Some iff the tree has a reclaimer *)
    mutable prev : 'v node;
    mutable tag : int;
    mutable dir : int;
        (* The results of the last [get] besides curr (which it returns):
           curr's parent, the snapshot of prev's tag taken inside the
           read-side critical section, and the direction from prev to
           curr. Written by get instead of returning a tuple, so a lookup
           allocates nothing; updates copy them into locals before any
           hook runs. *)
  }

  (* Field access shared by both kinds of block. The sentinel has only a
     left link, is never marked and is never retired. *)
  let link n dir =
    match n with
    | Node r -> if dir = left then r.left else r.right
    | Sentinel s when dir = left -> s.left
    | Sentinel _ | Nil -> invalid_arg "Citrus.link"

  let tag_cell n dir =
    match n with
    | Node r -> if dir = left then r.ltag else r.rtag
    | Sentinel s when dir = left -> s.ltag
    | Sentinel _ | Nil -> invalid_arg "Citrus.tag_cell"

  let lock_of = function
    | Node r -> r.lock
    | Sentinel s -> s.lock
    | Nil -> invalid_arg "Citrus.lock_of"

  let is_marked = function Node r -> r.marked | Sentinel _ | Nil -> false
  let shadow_of = function Node r -> r.shadow | Sentinel _ | Nil -> None
  let child n dir = Atomic.get (link n dir)

  let new_node key value l r =
    Node
      {
        key;
        value;
        left = Atomic.make l;
        right = Atomic.make r;
        ltag = Atomic.make 0;
        rtag = Atomic.make 0;
        marked = false;
        lock = Spinlock.create ~cls:node_cls ();
        shadow = None;
      }

  let create ?max_threads
      ?(call_rcu = Repro_rcu.Reclaimer.call_rcu_enabled ()) () =
    let root =
      Sentinel
        {
          left = Atomic.make Nil;
          ltag = Atomic.make 0;
          lock = Spinlock.create ~cls:node_cls ();
        }
    in
    let rcu = R.create ?max_threads () in
    let armed = San.enabled () in
    (* The reclaimer is per tree instance (at most one background domain
       per [R.t]); [shutdown] stops and joins it. *)
    let reclaimer =
      if call_rcu then Some (Rec.create rcu)
      else if armed then Some (Rec.create ~background:false rcu)
      else None
    in
    let self_bag =
      if call_rcu then Option.map Rec.new_producer reclaimer else None
    in
    let group = Stats.group () in
    (* Bind counters outside the record literal: field evaluation order is
       unspecified, and the group dumps in creation order. *)
    let restarts = Stats.counter group "restarts" in
    let inserts = Stats.counter group "inserts" in
    let deletes_one_child = Stats.counter group "deletes_one_child" in
    let deletes_two_children = Stats.counter group "deletes_two_children" in
    let reclaimed_nodes = Stats.counter group "reclaimed" in
    let rotations = Stats.counter group "rotations" in
    {
      root;
      rcu;
      armed;
      reclaimer;
      self_bag;
      san = San.create ("citrus/" ^ R.name);
      hooks =
        {
          on_restart = ignore;
          between_get_and_lock = ignore;
          after_find_successor = ignore;
          before_synchronize = ignore;
        };
      group;
      restarts;
      inserts;
      deletes_one_child;
      deletes_two_children;
      reclaimed_nodes;
      rotations;
      handle_ids = Atomic.make 0;
    }

  let register tree =
    {
      tree;
      rt = R.register tree.rcu;
      id = Atomic.fetch_and_add tree.handle_ids 1;
      bag = Option.map Rec.new_producer tree.reclaimer;
      prev = tree.root;
      tag = 0;
      dir = left;
    }

  let unregister h =
    (* An inline bag shorter than the batch must not leak when the thread
       leaves (a background bag is drained by the reclaimer domain). *)
    (match (h.tree.reclaimer, h.bag) with
    | Some rc, Some bag -> Rec.drain rc bag
    | _ -> ());
    R.unregister h.rt

  (* Armed sanitizer: give the node a shadow record now, so every
     traversal that touches it from here on is checked. The reclaimer
     carries it through Deferred (at enqueue) and Reclaimed (when the
     callback runs after its grace period). *)
  let new_shadow t = function
    | Node r when San.enabled () ->
        let s = San.register t.san in
        r.shadow <- Some s;
        Some s
    | Node _ | Sentinel _ | Nil -> None

  (* Retire an unlinked node into [bag]: one grace period later no reader
     can hold it, so the callback — standing in for free() — marks its
     shadow Reclaimed; a reader that touches it afterwards is a
     use-after-free the sanitizer reports. Under the GC a retirement is
     observable only to the sanitizer, so a disarmed tree retires
     nothing. *)
  let retire_into t rc bag id node =
    Rec.call_rcu rc bag ?shadow:(new_shadow t node) (fun () ->
        Stats.incr t.reclaimed_nodes id)

  let retire h node =
    let t = h.tree in
    match (t.reclaimer, h.bag) with
    | Some rc, Some bag when t.armed -> retire_into t rc bag h.id node
    | _ -> ()

  (* Restarts are double-booked: in the tree's own stats group (per-tree
     diagnostics) and in the process-global metrics/trace (workload-level
     JSON reports). *)
  let note_restart t h =
    Stats.incr t.restarts h.id;
    if Metrics.enabled () then Stats.incr Metrics.restarts h.id;
    Trace.record Restart h.id;
    t.hooks.on_restart ()

  (* Sanitizer probes on a node's shadow, one per lock discipline at the
     probing site: [san_check] raises (traversals holding only the read
     lock, released by get's exception handler on the way out),
     [san_note] records without raising (the successor walk runs while
     delete holds node locks a raise would leak), [san_observe] counts the
     touch only (post-lock validation, where reaching a retired node is
     legal — validate is specified to return false on it). All are no-ops
     unless the sanitizer is armed. *)
  let san_check h = function
    | None -> ()
    | Some s ->
        San.check ~slot:(R.reader_slot h.rt) ~cookie:(R.reader_cookie h.rt) s

  let san_note h = function
    | None -> ()
    | Some s ->
        San.note ~slot:(R.reader_slot h.rt) ~cookie:(R.reader_cookie h.rt) s

  let san_observe = function None -> () | Some s -> San.observe s

  (* The loop of get (lines 4-12): [prev] is the last node passed, [dir]
     the direction taken from it and [cell] that link. Stops at the node
     holding [key] or at an empty link, records prev and dir in the
     handle, and returns curr. A module-level function rather than a
     local closure, so the descent allocates nothing. *)
  let rec descend h key fault_on san_on prev dir cell =
    match Atomic.get cell with
    | Node c as curr ->
        if fault_on then Fault.inject fault_read_step;
        if san_on then san_check h c.shadow;
        let cmp = K.compare c.key key in
        if cmp = 0 then begin
          h.prev <- prev;
          h.dir <- dir;
          curr
        end
        else
          let dir = Citrus_proto.dir_of_cmp cmp in
          descend h key fault_on san_on curr dir
            (if dir = left then c.left else c.right)
    | (Nil | Sentinel _) as curr ->
        h.prev <- prev;
        h.dir <- dir;
        curr

  (* get (paper lines 1-15): wait-free search from below the sentinel
     inside an RCU read-side critical section. Returns curr, the node
     holding [key] (or [Nil]; never the sentinel), and leaves in [h] its
     parent [prev], the direction from prev to curr, and [tag], the
     snapshot of prev's tag in that direction taken inside the critical
     section.

     The read lock is taken before the body so the handler can assume it
     is held; everything that can raise — client comparisons, sanitizer
     checks, raise-action faults — runs inside the match, so the section
     is exited on every path. Spelled as match-with-exception rather than
     [Fun.protect]: this is the hot path of every operation, and the two
     closures Fun.protect would allocate per call cost measurable
     read-side throughput. *)
  let get h key =
    R.read_lock h.rt;
    match
      (* Arming state is snapshot once per critical section: the calls
         are not inlined across modules, and per-visited-node calls
         measurably tax the wait-free search this tree exists for. A
         traversal that began before arming is allowed to finish
         unprobed — arming is a debug-time operation. *)
      let san_on = San.enabled () in
      let root = h.tree.root in
      let curr =
        descend h key (Fault.enabled ()) san_on root left (link root left)
      in
      (* Save the tag inside the read-side critical section (line 13);
         [prev] was vetted when traversed, but the tag dereference must
         not outlive its grace period either. *)
      if san_on then san_check h (shadow_of h.prev);
      h.tag <- Atomic.get (tag_cell h.prev h.dir);
      curr
    with
    | curr ->
        R.read_unlock h.rt;
        curr
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        R.read_unlock h.rt;
        Printexc.raise_with_backtrace e bt

  (* contains (lines 16-20). *)
  let contains h key =
    match get h key with Node c -> c.value | Nil | Sentinel _ -> None

  let mem h key =
    match get h key with Node _ -> true | Nil | Sentinel _ -> false

  (* validate (lines 33-38): purely local checks under the caller-held
     locks. With curr present only its mark matters; with curr absent the
     ABA tag must not have moved, and the tag is read on that path only.
     Links compare by physical equality: the paper's prev.child[direction]
     = curr is on node identity, and [Nil] is an immediate. *)
  let validate prev tag curr direction =
    (not (is_marked prev))
    && child prev direction == curr
    &&
    match curr with
    | Node c -> not c.marked
    | Nil | Sentinel _ -> Atomic.get (tag_cell prev direction) = tag

  (* incrementTag (lines 39-41): bump the ABA tag when a child slot becomes
     empty. *)
  let increment_tag node direction =
    if child node direction == Nil then
      ignore (Atomic.fetch_and_add (tag_cell node direction) 1)

  (* insert (lines 21-32). *)
  let rec insert h key value =
    let t = h.tree in
    match get h key with
    | Node _ -> false (* the key was found (line 25) *)
    | Nil | Sentinel _ ->
        let prev = h.prev and tag = h.tag and direction = h.dir in
        t.hooks.between_get_and_lock ();
        let prev_lock = lock_of prev in
        Spinlock.acquire_ordered prev_lock 0;
        if San.enabled () then san_observe (shadow_of prev);
        if validate prev tag Nil direction then begin
          let node = new_node key (Some value) Nil Nil in
          Atomic.set (link prev direction) node;
          (* Seeded bug (lockdep mutant): unlock the new node's lock —
             which this domain never took — instead of prev's. Armed
             lockdep turns it into [Release_not_held] before the lock
             word is touched; prev's lock is left held, wedging the tree,
             so the hunt discards it. *)
          Spinlock.release
            (if Fault.enabled () && Fault.fires bug_unbalanced_unlock then
               lock_of node
             else prev_lock);
          Stats.incr t.inserts h.id;
          true
        end
        else begin
          Spinlock.release prev_lock;
          note_restart t h;
          insert h key value
        end

  (* The leftward walk of the successor search: the caller (delete) holds
     node locks across it, so the sanitizer probe must not raise —
     [san_note] records the violation and lets the locks be released
     normally. *)
  let rec leftmost h prev_succ succ =
    if San.enabled () then san_note h (shadow_of succ);
    match child succ left with
    | Node _ as next -> leftmost h succ next
    | Nil | Sentinel _ -> (prev_succ, succ)

  (* Successor search for the two-children case (lines 58-64): leftmost node
     of the right subtree of curr. The paper performs it outside any
     read-side critical section — the keys of traversed nodes never
     influence the direction, and validation catches staleness. That is
     only memory-safe without reclamation; on an armed tree, which retires
     unlinked nodes, we wrap the walk in a read-side critical section so a
     concurrent grace period cannot reclaim nodes under our feet. The
     caller checked curr has two children. *)
  let find_successor h curr =
    if not h.tree.armed then leftmost h curr (child curr right)
    else begin
      R.read_lock h.rt;
      Fun.protect
        ~finally:(fun () -> R.read_unlock h.rt)
        (fun () -> leftmost h curr (child curr right))
    end

  (* delete (lines 42-84). *)
  let rec delete h key =
    let t = h.tree in
    match get h key with
    | Nil | Sentinel _ -> false (* the key was not found (line 46) *)
    | Node c as curr ->
        let prev = h.prev and direction = h.dir in
        t.hooks.between_get_and_lock ();
        let prev_lock = lock_of prev in
        if Fault.enabled () && Fault.fires bug_abba_delete then begin
          (* Seeded bug (lockdep mutant): child before parent — against a
             concurrent top-down update this is the classic ABBA deadlock.
             Armed lockdep raises [Order_inversion] at the second
             acquisition (held rank 1, acquiring rank 0), single-domain,
             before any deadlock has to materialize. *)
          Spinlock.acquire_ordered c.lock 1;
          Spinlock.acquire_ordered prev_lock 0
        end
        else begin
          Spinlock.acquire_ordered prev_lock 0;
          Spinlock.acquire_ordered c.lock 1
        end;
        if San.enabled () then begin
          san_observe (shadow_of prev);
          san_observe c.shadow
        end;
        if not (validate prev 0 curr direction) then begin
          Spinlock.release c.lock;
          Spinlock.release prev_lock;
          note_restart t h;
          delete h key
        end
        else if Atomic.get c.left == Nil || Atomic.get c.right == Nil then begin
          (* curr has at most one child: bypass it (lines 50-56,
             Figure 3(a)-(b)). *)
          c.marked <- true;
          let l = Atomic.get c.left in
          Atomic.set (link prev direction)
            (if l != Nil then l else Atomic.get c.right);
          increment_tag prev direction;
          Spinlock.release c.lock;
          Spinlock.release prev_lock;
          retire h curr;
          Stats.incr t.deletes_one_child h.id;
          true
        end
        else begin
          (* curr has two children: replace it with a copy of its successor
             (lines 57-83, Figure 3(c)-(e)). *)
          let prev_succ, succ = find_successor h curr in
          match succ with
          | Nil | Sentinel _ -> assert false (* curr has a right child *)
          | Node s ->
              t.hooks.after_find_successor ();
              let succ_direction = if curr == prev_succ then right else left in
              let prev_succ_lock = lock_of prev_succ in
              if curr != prev_succ then
                Spinlock.acquire_ordered prev_succ_lock 2;
              Spinlock.acquire_ordered s.lock 3;
              if San.enabled () then begin
                san_observe (shadow_of prev_succ);
                san_observe s.shadow
              end;
              let succ_left_tag = Atomic.get s.ltag in
              if
                validate prev_succ 0 succ succ_direction
                && validate succ succ_left_tag Nil left
              then begin
                (* A fresh node with succ's key/value and curr's children
                   (line 70), locked before it becomes reachable (line 71). *)
                let node =
                  new_node s.key s.value (Atomic.get c.left)
                    (Atomic.get c.right)
                in
                let node_lock = lock_of node in
                Spinlock.acquire_ordered node_lock 4;
                c.marked <- true;
                Atomic.set (link prev direction) node;
                t.hooks.before_synchronize ();
                if Fault.enabled () then Fault.inject fault_delete_window;
                (* The unlink of succ from its old position (lines 75-80):
                   succ's right subtree takes its place. *)
                let unlink_succ () =
                  s.marked <- true;
                  if prev_succ == curr then begin
                    (* succ is the right child of curr, which [node]
                       replaced. *)
                    Atomic.set (link node right) (Atomic.get s.right);
                    increment_tag node right
                  end
                  else begin
                    Atomic.set (link prev_succ left) (Atomic.get s.right);
                    increment_tag prev_succ left
                  end
                in
                (* The unlink must wait for pre-existing readers: any search
                   that could still find the successor only in its old
                   position completes first (line 74). Two ways to pay for
                   that wait: *)
                let sync_in_read =
                  Fault.enabled () && Fault.fires bug_sync_in_read
                in
                (match (t.reclaimer, h.bag, t.self_bag) with
                | Some rc, Some bag, Some self_bag when not sync_in_read ->
                    (* call_rcu: hand the grace-period-then-unlink
                       continuation to the background reclaimer and return
                       now — the updater never blocks. The window state is
                       exactly the inline version's: all five locks stay
                       held (ceded to the continuation, which adopts and
                       releases them after the grace period), so every
                       schedule here is a schedule of the paper's protocol
                       in which the deleting thread is merely descheduled
                       inside synchronize while other operations run — the
                       safety argument is unchanged. Updaters that resolve
                       to the held nodes spin as they would against a
                       blocked inline deleter; readers never take node
                       locks, so the grace period always elapses. *)
                    Spinlock.transfer node_lock;
                    Spinlock.transfer s.lock;
                    if curr != prev_succ then Spinlock.transfer prev_succ_lock;
                    Spinlock.transfer c.lock;
                    Spinlock.transfer prev_lock;
                    Rec.call_rcu rc bag (fun () ->
                        unlink_succ ();
                        Spinlock.adopt node_lock ~order:4;
                        Spinlock.release node_lock;
                        Spinlock.adopt s.lock ~order:3;
                        Spinlock.release s.lock;
                        if curr != prev_succ then begin
                          Spinlock.adopt prev_succ_lock ~order:2;
                          Spinlock.release prev_succ_lock
                        end;
                        Spinlock.adopt c.lock ~order:1;
                        Spinlock.release c.lock;
                        Spinlock.adopt prev_lock ~order:0;
                        Spinlock.release prev_lock;
                        (* succ only became unreachable at the unlink above,
                           so its retirement cookie must postdate it. Retire
                           into a bag this domain may produce into: the
                           reclaimer-owned bag on the reclaimer domain; off
                           it, this closure ran on a fallback path — on the
                           retiring updater (bag full, reclaimer dead), which
                           owns [bag], or with the reclaimer stopping, where
                           call_rcu frees inline without touching a bag. *)
                        if t.armed then
                          retire_into t rc
                            (if Rec.on_reclaimer_domain rc then self_bag
                             else bag)
                            h.id succ);
                    (* curr became unreachable at the copy's publication, so
                       its cookie (taken inside [retire], i.e. now) already
                       covers every reader that could hold it. *)
                    retire h curr
                | _ ->
                    (* Inline: the paper's synchronous form. With many
                       updaters deleting concurrently these calls coalesce
                       inside [synchronize] (piggybacking on a grace period
                       already in flight) rather than each driving its own
                       scan. *)
                    if sync_in_read then begin
                      (* Seeded bug (lockdep mutant): the grace-period wait
                         issued from *inside* a read-side critical section —
                         the waiter is its own blocking reader, so disarmed
                         this self-deadlocks. Armed, [check_sync] raises
                         [Sync_in_read_section] before the wait begins; the
                         Fun.protect unwinds the read section so only the
                         node locks are left wedged. *)
                      R.read_lock h.rt;
                      Fun.protect
                        ~finally:(fun () -> R.read_unlock h.rt)
                        (fun () -> R.synchronize t.rcu)
                    end
                    else R.synchronize t.rcu;
                    unlink_succ ();
                    Spinlock.release node_lock;
                    Spinlock.release s.lock;
                    if curr != prev_succ then Spinlock.release prev_succ_lock;
                    Spinlock.release c.lock;
                    Spinlock.release prev_lock;
                    retire h curr;
                    retire h succ);
                Stats.incr t.deletes_two_children h.id;
                true
              end
              else begin
                Spinlock.release s.lock;
                if curr != prev_succ then Spinlock.release prev_succ_lock;
                Spinlock.release c.lock;
                Spinlock.release prev_lock;
                note_restart t h;
                delete h key
              end
        end

  (* Note on [validate prev 0 curr direction]: when curr is present the
     tag branch of validate is unreachable, matching the paper's
     validate(prev,-,curr,direction) "don't care" tag argument. *)

  (* --- Quiescent-state helpers --- *)

  exception Invariant_violation of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Invariant_violation s)) fmt

  let fold_inorder f acc t =
    let rec go acc = function
      | Nil -> acc
      | Sentinel _ -> fail "sentinel below the root"
      | Node n -> (
          let acc = go acc (Atomic.get n.left) in
          match n.value with
          | Some v -> go (f acc n.key v) (Atomic.get n.right)
          | None -> fail "real node without value")
    in
    go acc (child t.root left)

  let size t = fold_inorder (fun n _ _ -> n + 1) 0 t

  let to_list t =
    List.rev (fold_inorder (fun acc k v -> (k, v) :: acc) [] t)

  let height t =
    let rec go = function
      | Nil | Sentinel _ -> 0
      | Node n -> 1 + max (go (Atomic.get n.left)) (go (Atomic.get n.right))
    in
    go (child t.root left)

  let check_invariants t =
    let check_tag cell = if Atomic.get cell < 0 then fail "negative tag" in
    let rec check lo hi = function
      | Nil -> ()
      | Sentinel _ -> fail "sentinel below the root"
      | Node n ->
          if n.marked then fail "reachable node is marked";
          (match Option.map San.state n.shadow with
          | Some (San.Deferred _ | San.Reclaimed _) ->
              fail "reachable node was retired"
          | Some San.Live | None -> ());
          if Spinlock.is_locked n.lock then fail "reachable node is locked";
          if n.value = None then fail "real node without value";
          (match lo with
          | Some lo when K.compare n.key lo <= 0 ->
              fail "BST order violated (lower bound)"
          | _ -> ());
          (match hi with
          | Some hi when K.compare n.key hi >= 0 ->
              fail "BST order violated (upper bound)"
          | _ -> ());
          check_tag n.ltag;
          check_tag n.rtag;
          check lo (Some n.key) (Atomic.get n.left);
          check (Some n.key) hi (Atomic.get n.right)
    in
    match t.root with
    | Sentinel s ->
        if Spinlock.is_locked s.lock then fail "sentinel is locked";
        check_tag s.ltag;
        check None None (Atomic.get s.left)
    | Nil | Node _ -> fail "root is not the sentinel"

  let stats t =
    Stats.dump t.group
    @ [ ("grace_periods", R.grace_periods t.rcu) ]
    @
    match t.reclaimer with
    | None -> []
    | Some rc ->
        [
          ("reclaim_batches", Rec.batches rc);
          ("reclaimer_crashes", Rec.crashes rc);
          ("reclaim_backpressure", Rec.backpressure_waits rc);
          ("reclaim_pending", Rec.pending rc);
        ]

  let shutdown t =
    match t.reclaimer with Some rc -> Rec.stop rc | None -> ()

  let sanitizer t = t.san

  let reclaim_pressure t =
    match t.reclaimer with None -> 0.0 | Some rc -> Rec.pressure rc

  (* Hold one read-side critical section open around [f] — the
     stall-injection seam the chaos harness uses to park a reader
     mid-section and watch the retired backlog respond. Not a hot path,
     so Fun.protect's closures are fine here. *)
  let with_reader h f =
    R.read_lock h.rt;
    Fun.protect ~finally:(fun () -> R.read_unlock h.rt) f

  (* --- Maintenance rebalancing (the paper's first future-work item) ---

     Citrus is unbalanced; these relativistic rotations restore balance
     without ever blocking searches or waiting for a grace period. A right
     rotation at node [n] with parent [p] and left child [l]:

       1. lock p, n, l (the usual descending order) and validate the edges
          and marks, exactly like an update;
       2. mark n and build an unmarked copy [n'] of n whose left child is
          l's right subtree and whose right child is n's right subtree;
       3. publish n' as l's right child, then swing p's pointer to l.

     Readers inside the old n keep a consistent (obsolete) view: old n
     still points to l and to the shared right subtree, and l now leads to
     n', so every key reachable before is reachable throughout — no
     synchronize_rcu is needed because no key ever exists only in a
     location a pre-existing reader cannot find. Updaters that resolved to
     n restart through the ordinary marked-bit validation. This is the
     copy-on-rotate discipline of relativistic red-black trees grafted
     onto Citrus's fine-grained locking. *)

  (* One rotation attempt at [n], the [pdir]-child of [p]. [sink_dir] is
     the direction n moves: [right] performs a right rotation (n's left
     child rises), [left] the mirror. Fails harmlessly (returns false) if
     validation loses a race. *)
  let try_rotate h p pdir n sink_dir =
    match n with
    | Nil | Sentinel _ -> false
    | Node nr -> (
        let t = h.tree in
        let rise_dir = 1 - sink_dir in
        let p_lock = lock_of p in
        Spinlock.acquire_ordered p_lock 0;
        Spinlock.acquire_ordered nr.lock 1;
        let rising =
          if (not (is_marked p)) && (not nr.marked) && child p pdir == n then
            child n rise_dir
          else Nil
        in
        match rising with
        | Nil | Sentinel _ ->
            Spinlock.release nr.lock;
            Spinlock.release p_lock;
            false
        | Node cr as c ->
            Spinlock.acquire_ordered cr.lock 2;
            if cr.marked then begin
              Spinlock.release cr.lock;
              Spinlock.release nr.lock;
              Spinlock.release p_lock;
              false
            end
            else begin
              (* The copy that takes n's place below the rising child: it
                 adopts c's sink-side subtree and n's own sink-side
                 subtree. *)
              let fresh = new_node nr.key nr.value Nil Nil in
              Atomic.set (link fresh rise_dir) (child c sink_dir);
              Atomic.set (link fresh sink_dir) (child n sink_dir);
              nr.marked <- true;
              Atomic.set (link c sink_dir) fresh;
              Atomic.set (link p pdir) c;
              Spinlock.release cr.lock;
              Spinlock.release nr.lock;
              Spinlock.release p_lock;
              retire h n;
              Stats.incr t.rotations h.id;
              true
            end)

  let maintenance_pass h =
    let t = h.tree in
    let rotations = ref 0 in
    (* Post-order walk of the live tree computing height estimates and
       rotating where the local imbalance exceeds one. Heights are racy
       snapshots — a stale reading only wastes or skips a rotation; the
       next pass corrects it. The walk holds no locks and no read-side
       critical section (it may traverse retired nodes, which is safe
       under the GC; see the .mli). *)
    (* Post-order walk performing at most ONE rotation per position, so a
       pass costs O(n) and convergence comes from repeated passes (each
       pass reduces spine heights; a fully degenerate tree settles in
       O(log n) passes). The walk returns (height, left child height,
       right child height): the parent needs the grandchild heights for
       the standard AVL single-vs-double decision — a single rotation on
       an inner-heavy child would only mirror the imbalance and ping-pong
       forever, so the child is straightened first. Heights after a
       rotation are updated arithmetically where exact and left as
       (conservative) pre-rotation estimates otherwise; the next pass
       refines them. *)
    let rec walk p pdir =
      match child p pdir with
      | Nil | Sentinel _ -> (0, 0, 0)
      | Node _ as n ->
          let hl, hll, hlr = walk n left in
          let hr, hrl, hrr = walk n right in
          let stale = (1 + max hl hr, hl, hr) in
          if hl > hr + 1 then begin
            if hlr > hll then begin
              (* Zig-zag: raise the left child's right child first. *)
              (match child n left with
              | Node _ as l when try_rotate h n left l left -> incr rotations
              | Node _ | Nil | Sentinel _ -> ());
              stale
            end
            else if try_rotate h p pdir n right then begin
              incr rotations;
              let hr' = 1 + max hlr hr in
              (1 + max hll hr', hll, hr')
            end
            else stale
          end
          else if hr > hl + 1 then begin
            if hrl > hrr then begin
              (match child n right with
              | Node _ as r when try_rotate h n right r right ->
                  incr rotations
              | Node _ | Nil | Sentinel _ -> ());
              stale
            end
            else if try_rotate h p pdir n left then begin
              incr rotations;
              let hl' = 1 + max hl hrl in
              (1 + max hl' hrr, hl', hrr)
            end
            else stale
          end
          else stale
    in
    ignore (walk t.root left);
    !rotations

  let balance ?(max_passes = 64) h =
    let rec go passes total =
      if passes >= max_passes then total
      else
        let r = maintenance_pass h in
        if r = 0 then total else go (passes + 1) (total + r)
    in
    go 0 0

  module Hooks = struct
    let on_restart t f = t.hooks.on_restart <- f
    let between_get_and_lock t f = t.hooks.between_get_and_lock <- f
    let after_find_successor t f = t.hooks.after_find_successor <- f
    let before_synchronize t f = t.hooks.before_synchronize <- f
  end
end
