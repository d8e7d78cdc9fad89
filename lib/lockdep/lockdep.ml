(* Lockdep: lock-order and RCU-context validator (see the .mli and
   CORRECTNESS.md for the protocol it enforces).

   Design, following Linux lockdep scaled to this repository:

   - Locks are grouped into *classes* (allocation site + role). All
     validation state is per class, so its size is bounded by the number
     of lock-creation sites, not the number of locks: a Citrus tree with
     a million nodes contributes one class.
   - Each domain keeps a held-lock stack in domain-local storage; no
     synchronization is needed to read or push it.
   - Cross-class nesting (acquire B while holding A) records a directed
     edge A -> B in a global class-dependency graph, remembering the
     backtrace of the first observation. An acquisition that would close
     a cycle is reported immediately — the ABBA deadlock is flagged the
     first time the inverted order is *observed*, long before any
     schedule actually deadlocks, and the report carries both ends'
     backtraces.
   - Within-class nesting is silently allowed for unordered classes
     (hand-over-hand coupling in the list/tree baselines would otherwise
     be all noise) and checked against explicit order tokens for ordered
     classes: Citrus's root-to-leaf locking protocol becomes "tokens must
     strictly increase down the held stack".
   - The same domain-local record tracks RCU read-side nesting, so
     waiting for a grace period from inside a read-side critical section
     (the self-deadlock RCU's rules exist to prevent) is caught at the
     synchronize call, not as a hang.

   This module sits *below* the locks in the dependency stack, so it can
   use nothing from Repro_sync (only the arming word, Repro_fault.Arm):
   the dependency-graph lock is a private hand-rolled spin on an atomic
   (which also keeps lockdep from ever recursing into itself), and the
   counters are plain atomics — armed mode is a debug mode, contention
   on them is acceptable. *)

type role = Tree_node | Gp | Registry | Generic

let role_to_string = function
  | Tree_node -> "tree-node"
  | Gp -> "gp"
  | Registry -> "registry"
  | Generic -> "generic"

type cls = { c_id : int; c_name : string; c_role : role; c_ordered : bool }

let max_classes = 128

(* Class names indexed by id, for reports and the DFS. Slot 0 is the
   generic class; the last slot is the shared overflow class that soaks
   up registrations past the bound. *)
let class_names = Array.make max_classes "?"
let class_count = Atomic.make 0

let overflow =
  { c_id = max_classes - 1; c_name = "overflow"; c_role = Generic;
    c_ordered = false }

let () = class_names.(max_classes - 1) <- "overflow"

let new_class ?(ordered = false) role name =
  let id = Atomic.fetch_and_add class_count 1 in
  if id >= max_classes - 1 then overflow
  else begin
    let name = role_to_string role ^ ":" ^ name in
    class_names.(id) <- name;
    { c_id = id; c_name = name; c_role = role; c_ordered = ordered }
  end

let generic = new_class Generic "unclassified"

let cls_id c = c.c_id
let cls_name c = c.c_name

(* Per-lock identities start at 1 so a held-entry id can never collide
   with an uninitialized 0. *)
let lock_ids = Atomic.make 1

let new_lock_id () = Atomic.fetch_and_add lock_ids 1

(* -- arming and counters -- *)

let enabled () = Repro_fault.Arm.word () land Repro_fault.Arm.lockdep <> 0

let checks_total = Atomic.make 0
let violations_total = Atomic.make 0

let checks () = Atomic.get checks_total
let violations () = Atomic.get violations_total

let reset_counters () =
  Atomic.set checks_total 0;
  Atomic.set violations_total 0

let count_check () = Atomic.incr checks_total

(* -- violations -- *)

type kind =
  | Order_inversion
  | Dependency_cycle
  | Recursive_lock
  | Release_not_held
  | Sync_in_read_section
  | Unbalanced_read_unlock

let kind_to_string = function
  | Order_inversion -> "order-inversion"
  | Dependency_cycle -> "dependency-cycle"
  | Recursive_lock -> "recursive-lock"
  | Release_not_held -> "release-not-held"
  | Sync_in_read_section -> "synchronize-in-read-section"
  | Unbalanced_read_unlock -> "unbalanced-read-unlock"

type report = {
  kind : kind;
  cls : string;
  other_cls : string;
  domain : int;
  reader_slot : int;
  reader_nesting : int;
  held : string list;
  backtrace : string;
  other_backtrace : string;
}

exception Violation of report

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "lockdep: %s on domain %d" (kind_to_string r.kind)
       r.domain);
  if r.cls <> "" then Buffer.add_string b (Printf.sprintf " (class %s" r.cls);
  if r.other_cls <> "" then
    Buffer.add_string b (Printf.sprintf " vs %s" r.other_cls);
  if r.cls <> "" then Buffer.add_char b ')';
  if r.reader_slot >= 0 || r.reader_nesting > 0 then
    Buffer.add_string b
      (Printf.sprintf "; reader slot %d, read-side nesting %d" r.reader_slot
         r.reader_nesting);
  if r.held <> [] then
    Buffer.add_string b
      (Printf.sprintf "\n  held locks (most recent first): %s"
         (String.concat ", " r.held));
  if r.backtrace <> "" then
    Buffer.add_string b ("\n  at:\n" ^ r.backtrace);
  if r.other_backtrace <> "" then
    Buffer.add_string b
      ("\n  conflicting acquisition first observed at:\n" ^ r.other_backtrace);
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Violation r -> Some (report_to_string r)
    | _ -> None)

let violation_hook = Atomic.make (fun (_ : int) -> ())

let set_violation_hook f = Atomic.set violation_hook f

(* -- per-domain context -- *)

type entry = {
  e_cls : cls;
  e_order : int; (* -1 = unordered acquisition *)
  e_lock : int; (* per-lock identity *)
  e_bt : Printexc.raw_backtrace;
}

type dstate = {
  mutable held : entry list; (* most recent first *)
  mutable rcu_nesting : int;
  mutable rcu_slot : int;
}

let dls =
  Domain.DLS.new_key (fun () ->
      { held = []; rcu_nesting = 0; rcu_slot = -1 })

let state () = Domain.DLS.get dls

let entry_to_string e =
  if e.e_order >= 0 then Printf.sprintf "%s@%d" e.e_cls.c_name e.e_order
  else e.e_cls.c_name

let capture () = Printexc.get_callstack 24
let bt_string bt = Printexc.raw_backtrace_to_string bt

let violate ?(cls_id = 0) ~kind ~cls ~other_cls ~other_bt d =
  let rep =
    {
      kind;
      cls;
      other_cls;
      domain = (Domain.self () :> int);
      reader_slot = (if d.rcu_nesting > 0 then d.rcu_slot else -1);
      reader_nesting = d.rcu_nesting;
      held = List.map entry_to_string d.held;
      backtrace = bt_string (capture ());
      other_backtrace = other_bt;
    }
  in
  Atomic.incr violations_total;
  (Atomic.get violation_hook) cls_id;
  raise (Violation rep)

(* -- class-dependency graph --

   Adjacency matrix plus the backtrace of each edge's first observation.
   Guarded by a private spin on an atomic: this module cannot use the
   instrumented Spinlock (it sits below it), and holding the guard spans
   only bounded matrix/DFS work. Reads of [edges] outside the guard are
   benign races used to skip the common already-recorded case. *)

let edges = Array.make (max_classes * max_classes) false
let edge_bt = Array.make (max_classes * max_classes) ""
let eidx a b = (a * max_classes) + b

let graph_guard = Atomic.make false

let graph_lock () =
  while not (Atomic.compare_and_set graph_guard false true) do
    Domain.cpu_relax ()
  done

let graph_unlock () = Atomic.set graph_guard false

(* Is [target] reachable from [src] along recorded edges? Returns the id
   of [src]'s first step on a witnessing path (for the report's "first
   observed at" backtrace), or None. Called with the graph guard held;
   the matrix is small and acyclic by construction, so a straight DFS is
   plenty. *)
let find_path src target =
  let visited = Array.make max_classes false in
  let rec dfs n =
    n = target
    || (not visited.(n))
       && begin
            visited.(n) <- true;
            let rec scan m =
              m < max_classes && ((edges.(eidx n m) && dfs m) || scan (m + 1))
            in
            scan 0
          end
  in
  let rec first m =
    if m >= max_classes then None
    else if edges.(eidx src m) && (m = target || dfs m) then Some m
    else first (m + 1)
  in
  first 0

(* Record held-class -> acquired-class, checking that the reverse
   direction is not already reachable (which would mean some schedule
   can hold the locks in the opposite order: the ABBA deadlock). *)
let add_edge ~(held : entry) ~(acquiring : cls) ~bt d =
  let a = held.e_cls.c_id and b = acquiring.c_id in
  if not edges.(eidx a b) then begin
    graph_lock ();
    if edges.(eidx a b) then graph_unlock ()
    else begin
      match find_path b a with
      | Some step ->
          let other_bt = edge_bt.(eidx b step) in
          graph_unlock ();
          violate ~cls_id:b ~kind:Dependency_cycle ~cls:acquiring.c_name
            ~other_cls:held.e_cls.c_name ~other_bt d
      | None ->
          edges.(eidx a b) <- true;
          edge_bt.(eidx a b) <- bt_string bt;
          graph_unlock ()
    end
  end

(* -- lock hooks -- *)

let push_checks cls ~id ~order ~blocking d =
  if id > 0 && List.exists (fun e -> e.e_lock = id) d.held then
    violate ~cls_id:cls.c_id ~kind:Recursive_lock ~cls:cls.c_name
      ~other_cls:cls.c_name ~other_bt:"" d;
  if blocking then begin
    if cls.c_ordered && order >= 0 then
      List.iter
        (fun e ->
          if e.e_cls.c_id = cls.c_id && e.e_order >= 0 && e.e_order >= order
          then
            violate ~cls_id:cls.c_id ~kind:Order_inversion ~cls:cls.c_name
              ~other_cls:(entry_to_string e) ~other_bt:(bt_string e.e_bt) d)
        d.held;
    let bt = capture () in
    List.iter
      (fun e -> if e.e_cls.c_id <> cls.c_id then add_edge ~held:e ~acquiring:cls ~bt d)
      d.held
  end

let record_acquire cls ~id ~order ~blocking =
  count_check ();
  let d = state () in
  push_checks cls ~id ~order ~blocking d;
  d.held <- { e_cls = cls; e_order = order; e_lock = id; e_bt = capture () }
            :: d.held

let lock_acquired cls ~id ~order = record_acquire cls ~id ~order ~blocking:true

let trylock_acquired cls ~id ~order =
  record_acquire cls ~id ~order ~blocking:false

let lock_released cls ~id =
  count_check ();
  let d = state () in
  let rec remove = function
    | [] -> None
    | e :: rest when e.e_lock = id && e.e_cls.c_id = cls.c_id -> Some rest
    | e :: rest -> (
        match remove rest with None -> None | Some r -> Some (e :: r))
  in
  match remove d.held with
  | Some held -> d.held <- held
  | None ->
      violate ~cls_id:cls.c_id ~kind:Release_not_held ~cls:cls.c_name
        ~other_cls:"" ~other_bt:"" d

(* -- RCU context hooks -- *)

let rcu_read_enter ~slot =
  count_check ();
  let d = state () in
  d.rcu_nesting <- d.rcu_nesting + 1;
  d.rcu_slot <- slot

let rcu_read_exit () =
  count_check ();
  let d = state () in
  if d.rcu_nesting <= 0 then
    violate ~kind:Unbalanced_read_unlock ~cls:"" ~other_cls:"" ~other_bt:"" d;
  d.rcu_nesting <- d.rcu_nesting - 1

let check_sync () =
  count_check ();
  let d = state () in
  if d.rcu_nesting > 0 then
    violate ~kind:Sync_in_read_section ~cls:"" ~other_cls:"" ~other_bt:"" d

let read_nesting () = (state ()).rcu_nesting

(* -- reset -- *)

let reset () =
  reset_counters ();
  graph_lock ();
  Array.fill edges 0 (Array.length edges) false;
  Array.fill edge_bt 0 (Array.length edge_bt) "";
  graph_unlock ();
  let d = state () in
  d.held <- [];
  d.rcu_nesting <- 0;
  d.rcu_slot <- -1
