(* Reclamation sanitizer: a debug-mode grace-period safety checker.

   Under a GC, a broken [synchronize] cannot segfault — a reader touching
   a node the C original would already have freed silently reads valid
   memory, and every existing test passes. This module restores the
   missing failure: each reclaimable object registers a *shadow record*
   whose state tracks the logical lifetime the C code would give it
   (Live -> Deferred at a grace-period cookie -> Reclaimed), and
   instrumented read paths check the shadow of every node they touch.
   Touching a [Reclaimed] record inside a read-side critical section is a
   logical use-after-free and raises {!Violation} with a structured
   report.

   The same state machine gives double-free detection ([on_defer] on a
   record that is already Deferred or Reclaimed) and a teardown leak
   audit ([audit]: records still Deferred — their free was promised but
   never happened).

   Cost discipline: off by default; every instrumented site is
   [if Sanitizer.enabled () then ...] — one atomic load and a branch,
   the Metrics/Fault shape. A domain's shadow table only holds records in
   the Deferred state (inserted by [on_defer], removed by [on_reclaim]),
   so memory stays bounded by the reclamation backlog, not by the number
   of objects ever allocated. *)

module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Spinlock = Repro_sync.Spinlock
module Lockdep = Repro_lockdep.Lockdep

(* The deferred-table guard is an instrumented spinlock (not a raw
   Stdlib.Mutex, which the @lint rule reserves for the wait queue private
   to lib/rcu/gp.ml): its critical sections are a few hashtable
   operations, and going through [Spinlock] puts the sanitizer's own
   locking under the lockdep validator like every other lock in the
   repository. One Registry-role class covers every sanitizer domain's
   table. *)
let table_cls = Lockdep.new_class Lockdep.Registry "sanitizer/deferred-table"

type kind = Use_after_reclaim | Double_free | Leaked_deferral

type state =
  | Live
  | Deferred of int (* grace-period cookie recorded at enqueue *)
  | Reclaimed of int * int (* (cookie at enqueue, cookie at reclaim) *)

type domain = {
  dname : string;
  mu : Spinlock.t;
  (* Only records currently in the Deferred state, keyed by record id. *)
  deferred : (int, record) Hashtbl.t;
  ids : int Atomic.t;
}

and record = { id : int; owner : domain; state : state Atomic.t }

type report = {
  kind : kind;
  node_id : int;
  domain : string;
  deferred_gp : int;
  reclaimed_gp : int;
  reader_slot : int;
  reader_cookie : int;
  backtrace : string;
}

exception Violation of report

let kind_to_string = function
  | Use_after_reclaim -> "use-after-reclaim"
  | Double_free -> "double-free"
  | Leaked_deferral -> "leaked-deferral"

let report_to_string r =
  Printf.sprintf
    "reclamation sanitizer: %s of shadow record %d in domain %S (deferred at \
     gp %d, reclaimed at gp %d; reader slot %d, entry cookie %d)%s"
    (kind_to_string r.kind) r.node_id r.domain r.deferred_gp r.reclaimed_gp
    r.reader_slot r.reader_cookie
    (if r.backtrace = "" then "" else "\n" ^ r.backtrace)

let () =
  Printexc.register_printer (function
    | Violation r -> Some (report_to_string r)
    | _ -> None)

(* The one-load-and-branch gate every instrumented site consults. *)
let on = Atomic.make false

let enabled () = Atomic.get on
let arm () = Atomic.set on true
let disarm () = Atomic.set on false

(* Violations are counted unconditionally (they are rare and load-bearing
   for the mutation suite); per-touch check counts go through the striped
   Metrics registry so armed readers do not contend on one cell. *)
let violations_total = Atomic.make 0

let violations () = Atomic.get violations_total
let reset_violations () = Atomic.set violations_total 0

let create dname =
  {
    dname;
    mu = Spinlock.create ~cls:table_cls ();
    deferred = Hashtbl.create 64;
    ids = Atomic.make 0;
  }

let domain_name d = d.dname

let register d =
  { id = Atomic.fetch_and_add d.ids 1; owner = d; state = Atomic.make Live }

let id r = r.id
let state r = Atomic.get r.state

let make_report kind r ~slot ~cookie ~bt =
  let deferred_gp, reclaimed_gp =
    match Atomic.get r.state with
    | Live -> (-1, -1)
    | Deferred g -> (g, -1)
    | Reclaimed (d, g) -> (d, g)
  in
  {
    kind;
    node_id = r.id;
    domain = r.owner.dname;
    deferred_gp;
    reclaimed_gp;
    reader_slot = slot;
    reader_cookie = cookie;
    backtrace = bt;
  }

let note_violation rep =
  Atomic.incr violations_total;
  if Metrics.enabled () then
    Stats.incr Metrics.sanitizer_violations (Metrics.slot ());
  Trace.record Sanitize_violation rep.node_id

let backtrace () =
  Printexc.raw_backtrace_to_string (Printexc.get_callstack 24)

let violation kind r ~slot ~cookie =
  let rep = make_report kind r ~slot ~cookie ~bt:(backtrace ()) in
  note_violation rep;
  raise (Violation rep)

let count_check () =
  if Metrics.enabled () then
    Stats.incr Metrics.sanitizer_checks (Metrics.slot ())

let resolve_slot = function Some s -> s | None -> Metrics.slot ()
let resolve_cookie = function Some c -> c | None -> 0

let check ?slot ?cookie r =
  count_check ();
  match Atomic.get r.state with
  | Live | Deferred _ -> ()
  | Reclaimed _ ->
      violation Use_after_reclaim r ~slot:(resolve_slot slot)
        ~cookie:(resolve_cookie cookie)

let note ?slot ?cookie r =
  count_check ();
  match Atomic.get r.state with
  | Live | Deferred _ -> ()
  | Reclaimed _ ->
      (* Same detection as [check], but the caller holds node locks a
         raise would leak — record the violation and let the caller
         finish its (lock-disciplined) control flow. *)
      note_violation
        (make_report Use_after_reclaim r ~slot:(resolve_slot slot)
           ~cookie:(resolve_cookie cookie) ~bt:(backtrace ()))

let observe _r = count_check ()

let on_defer r ~gp =
  if Atomic.compare_and_set r.state Live (Deferred gp) then begin
    let d = r.owner in
    Spinlock.acquire d.mu;
    Hashtbl.replace d.deferred r.id r;
    Spinlock.release d.mu
  end
  else
    (* Already Deferred or Reclaimed: the same object was queued for a
       second free. *)
    violation Double_free r ~slot:(Metrics.slot ()) ~cookie:0

let rec on_reclaim ?gp r =
  match Atomic.get r.state with
  | Reclaimed _ ->
      violation Double_free r ~slot:(Metrics.slot ()) ~cookie:0
  | (Live | Deferred _) as cur ->
      let deferred_gp = match cur with Deferred g -> g | _ -> -1 in
      let reclaimed_gp = match gp with Some g -> g | None -> -1 in
      if Atomic.compare_and_set r.state cur (Reclaimed (deferred_gp, reclaimed_gp))
      then begin
        let d = r.owner in
        Spinlock.acquire d.mu;
        Hashtbl.remove d.deferred r.id;
        Spinlock.release d.mu
      end
      else on_reclaim ?gp r

let deferred_count d =
  Spinlock.acquire d.mu;
  let n = Hashtbl.length d.deferred in
  Spinlock.release d.mu;
  n

let audit d =
  Spinlock.acquire d.mu;
  let leaked = Hashtbl.fold (fun _ r acc -> r :: acc) d.deferred [] in
  Spinlock.release d.mu;
  leaked
  |> List.sort (fun a b -> compare a.id b.id)
  |> List.map (fun r ->
         make_report Leaked_deferral r ~slot:(-1) ~cookie:0 ~bt:"")

(* Environment arming, mirroring REPRO_FAULTS / REPRO_STALL_MS: any
   binary can run sanitized without code changes. *)
let () =
  match Sys.getenv_opt "REPRO_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> arm ()
  | Some _ | None -> ()
