(* The seeded-bug registry: one table, one row per mutant and per control.

   Controls are rows of their own rather than a field of their mutant
   because they do not pair up one to one: the lockdep controls are one
   clean round per RCU flavour, and the model controls are one per model
   (two epoch mutants share one, the store-buffering litmus has none).

   The sanitizer hunts chase scheduling races: fault points
   ([urcu.read.enter], [torture.reader.hold], [citrus.read.step]) park a
   reader inside the vulnerable window for milliseconds so a writer can
   complete a broken grace period under it, and each attempt uses a
   derived seed ([seed + attempt]) so the whole hunt is reproducible. The
   lockdep, chaos and model rows are deterministic: one attempt each. *)

module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep
module Arm = Repro_fault.Arm
module Torture = Repro_rcu.Torture
module Barrier = Repro_sync.Barrier
module Rng = Repro_sync.Rng
module Citrus_int = Repro_citrus.Citrus_int
module Chaos = Repro_server.Chaos
module Engine = Repro_modelcheck.Engine
module Models = Repro_modelcheck.Models

type suite = Sanitizer | Lockdep | Chaos | Model

let suite_name = function
  | Sanitizer -> "sanitizer"
  | Lockdep -> "lockdep"
  | Chaos -> "chaos"
  | Model -> "model"

type kind = Mutant | Control
type params = { seed : int; attempts : int }
type outcome = { attempts : int; detections : int; detail : string }

type row = {
  name : string;
  suite : suite;
  kind : kind;
  bug : string option;
  run : params -> outcome;
}

let once detections detail = { attempts = 1; detections; detail }

let arm points f =
  Fault.configure (List.map (fun p -> (p, 1.0)) points);
  Fun.protect ~finally:Fault.disable_all f

(* Arming a [bug.*] point alongside a run's delay points. *)
let bug point = (point, 1.0, None)

(* --- sanitizer hunts --- *)

(* The slice of the Citrus interface the hunts need — every
   Citrus-over-int instantiation matches it, so the code below runs a
   mutant and its control through the same code. *)
module type TREE = sig
  type 'v t
  type 'v handle

  val create : ?max_threads:int -> ?call_rcu:bool -> unit -> 'v t
  val register : 'v t -> 'v handle
  val unregister : 'v handle -> unit
  val mem : 'v handle -> int -> bool
  val insert : 'v handle -> int -> 'v -> bool
  val delete : 'v handle -> int -> bool
  val shutdown : 'v t -> unit
  val sanitizer : 'v t -> San.domain
end

(* Arm the sanitizer and exactly [faults] around [f], restoring both: the
   suite runs inside test processes that may not want either left on. *)
let with_armed ~seed ~faults f =
  Arm.with_ Arm.sanitizer @@ fun () ->
  Fault.configure ~seed:(Int64.of_int seed) [];
  List.iter (fun (nm, rate, action) -> Fault.set ?action nm ~rate) faults;
  Fun.protect ~finally:Fault.disable_all f

(* One round of the Citrus hunt: [readers] domains sweep lookups over a
   small key range while the main domain churns delete/insert on every
   key — on the armed tree each delete retires nodes, and with broken
   grace periods those nodes are reclaimed under the readers' feet. The
   [citrus.read.step] fault parks readers mid-traversal so the reclaim
   lands while the parked reader still holds the node. Returns the
   number of sanitizer violations observed. *)
let citrus_round ?(call_rcu = false) (module T : TREE) ~seed ~keys ~rounds
    ~readers =
  let before = San.violations () in
  let t = T.create ~call_rcu () in
  let stop = Atomic.make false in
  let h0 = T.register t in
  for k = 0 to keys - 1 do
    ignore (T.insert h0 k k)
  done;
  let start = Barrier.create (readers + 1) in
  let rdrs =
    List.init readers (fun i ->
        Domain.spawn (fun () ->
            let h = T.register t in
            let rng = Rng.create (Int64.of_int (seed + 31 + i)) in
            Barrier.wait start;
            (try
               while not (Atomic.get stop) do
                 ignore (T.mem h (Rng.int rng keys))
               done
             with San.Violation _ -> Atomic.set stop true);
            T.unregister h))
  in
  Barrier.wait start;
  (try
     for _round = 1 to rounds do
       for k = 0 to keys - 1 do
         if not (Atomic.get stop) then begin
           ignore (T.delete h0 k);
           ignore (T.insert h0 k k)
         end
       done
     done
   with San.Violation _ -> Atomic.set stop true);
  Atomic.set stop true;
  List.iter Domain.join rdrs;
  T.unregister h0;
  (* Join the reclaimer (no-op without call_rcu) before counting: a
     drain-time early free is a catch too. *)
  T.shutdown t;
  San.violations () - before

(* Retry [f attempt] with derived seeds until it reports a violation or
   the attempt budget runs out. *)
let hunt (p : params) f =
  let rec go i =
    if i > p.attempts then
      { attempts = p.attempts; detections = 0; detail = "" }
    else
      let v = f (p.seed + i) in
      if v > 0 then { attempts = i; detections = v; detail = "" }
      else go (i + 1)
  in
  go 1

let read_step = ("citrus.read.step", 0.005, Some (Fault.Delay_ns 2_000_000))

(* A mutant hunt churns 40 rounds per attempt; a control only has to show
   the harness is quiet on correct code, so 4 rounds from the base seed. *)
let citrus_hunt ?call_rcu tree ~faults p =
  hunt p (fun seed ->
      with_armed ~seed ~faults (fun () ->
          citrus_round ?call_rcu tree ~seed ~keys:64 ~rounds:40 ~readers:2))

let citrus_control ~call_rcu (p : params) =
  once
    (with_armed ~seed:p.seed ~faults:[ read_step ] (fun () ->
         citrus_round ~call_rcu
           (module Citrus_int.Epoch)
           ~seed:p.seed ~keys:64 ~rounds:4 ~readers:2))
    ""

(* Torture configuration shared by the urcu and qsbr hunts: few slots so
   writers keep retiring what readers hold, delays on, sanitizer on, and
   millisecond parks at the flavour's vulnerable window. *)
let torture_cfg ~nest ~updates ~faults =
  {
    Torture.default with
    readers = 2;
    writers = 2;
    slots = 2;
    updates_per_writer = updates;
    nest;
    reader_delay = true;
    sanitize = true;
    faults;
  }

let torture flavour cfg seed =
  (Torture.run_flavour ~seed flavour cfg).Torture.violations

(* The single-flip bug only fires when a grace period completes inside a
   reader's load-phase-to-publish-slot window, which on one core needs
   the scheduler to preempt the parked reader and run a writer. Busy
   waits shorter than a scheduler slice are rarely preempted, so these
   parks are long (well past typical CFS granularity) and rare. *)
let urcu_parks rate =
  [
    ("urcu.read.enter", rate, Some (Fault.Delay_ns 20_000_000));
    ("torture.reader.hold", rate, Some (Fault.Delay_ns 20_000_000));
  ]

let hold_fault = ("torture.reader.hold", 0.25, Some (Fault.Delay_ns 3_000_000))

(* --- lockdep rounds ---

   The lockdep bugs are control-flow, so one single-domain round is
   deterministic: the seeded bug either trips the validator on its first
   execution or the validator is broken. No retries, no delays. *)

(* One round of tree operations covering every locking-protocol site a
   seeded bug corrupts: inserts (prev lock + release), a two-child delete
   (the full prev/curr/succ/copy lock ladder and the grace-period wait),
   then the remaining deletes and a lookup's read-side section. The round
   stops at the first [Lockdep.Violation]: a caught violation leaves the
   involved node locks (deliberately) wedged, so continuing would only
   report echoes of the same bug. The tree is discarded; the caller
   resets lockdep's held-stack state afterwards. Returns the sanitizer
   violations plus leaked retirements, both 0 unless the sanitizer was
   armed (the tree then retires what it unlinks). *)
let lockdep_round (module T : TREE) =
  let before = San.violations () in
  let t = T.create () in
  let h = T.register t in
  (try
     ignore (T.insert h 2 2);
     ignore (T.insert h 1 1);
     ignore (T.insert h 3 3);
     ignore (T.mem h 1);
     (* Key 2 has two children: the successor path and the synchronize. *)
     ignore (T.delete h 2);
     ignore (T.delete h 1);
     ignore (T.delete h 3)
   with Lockdep.Violation _ -> ());
  (* Read-side nesting is always unwound by the time a violation
     propagates here (Fun.protect in the update paths), so unregistering
     is safe even after a catch. *)
  T.unregister h;
  T.shutdown t;
  San.violations () - before + List.length (San.audit (T.sanitizer t))

(* Arm lockdep around [f] from a clean slate, restoring it; the count is
   the validator's violations plus whatever [f] adds. *)
let with_lockdep f =
  Lockdep.reset ();
  Fun.protect ~finally:Lockdep.reset (fun () ->
      Arm.with_ Arm.lockdep (fun () ->
          let v = f () in
          once (Lockdep.violations () + v) ""))

(* A clean round with the sanitizer armed too, so the successor walk's
   read section, the retired bags and the drain-time grace periods are
   all validated: the full locking protocol must be silent, and so must
   the sanitizer. *)
let lockdep_control tree _ =
  with_lockdep (fun () ->
      with_armed ~seed:0 ~faults:[] (fun () -> lockdep_round tree))

(* --- chaos scenarios (deterministic: see Chaos) --- *)

let citrus_dict = (module Repro_dict.Dict.Citrus_epoch : Repro_dict.Dict.DICT)

let backlog () =
  let m = Chaos.mutation citrus_dict in
  once (Bool.to_int m.caught)
    (Printf.sprintf "expected %d, final %d, lost %d" m.expected m.final_size
       m.lost)

let breaker () =
  let m = Chaos.mutation_breaker citrus_dict in
  once (Bool.to_int m.caught)
    (Printf.sprintf "crash=%b tripped=%b rejected=%b" m.crash_seen m.tripped
       m.rejected)

let deadline () =
  let m = Chaos.mutation_deadline citrus_dict in
  once (Bool.to_int m.caught)
    (Printf.sprintf "queued %d, applied %d" m.queued m.applied)

(* --- model scenarios ---

   Exhaustive exploration: a mutant must yield a counterexample; a
   control must finish within the state budget with none. *)

let explore kind (sc : Engine.scenario) _ =
  let r = Engine.explore ~max_states:3_000_000 sc in
  match r.counterexample with
  | Some cx ->
      once 1
        (Format.asprintf "counterexample in %d trace(s):@\n%a" r.stats.traces
           Engine.pp_counterexample cx)
  | None when kind = Control && not r.stats.exhausted ->
      once 1 "state budget exceeded before exhaustion"
  | None -> once 0 (Printf.sprintf "%d trace(s), exhaustive" r.stats.traces)

(* --- the table --- *)

let mutant ?bug suite name run = { name; suite; kind = Mutant; bug; run }

let control suite name run =
  { name = "control:" ^ name; suite; kind = Control; bug = None; run }

(* The deterministic suites switch their bug on around the whole run. *)
let lockdep_mutant name point =
  mutant ~bug:point Lockdep name (fun _ ->
      with_lockdep (fun () ->
          arm [ point ] (fun () ->
              ignore (lockdep_round (module Citrus_int.Epoch));
              0)))

let chaos_mutant name point scenario =
  mutant ~bug:point Chaos name (fun _ -> arm [ point ] scenario)

let chaos_control name scenario = control Chaos name (fun _ -> arm [] scenario)

let skip_synchronize = "bug.gp.skip_synchronize"
let early_free = "bug.reclaimer.early_free"
let single_flip = "bug.urcu.single_flip"
let quiescent_in_section = "bug.qsbr.quiescent_in_section"

let table =
  [
    (* Every synchronize returns without waiting: two-child deletes (and
       every inline reclaimer drain) free nodes readers still hold. *)
    mutant ~bug:skip_synchronize Sanitizer "citrus-skip-synchronize"
      (citrus_hunt
         (module Citrus_int.Epoch)
         ~faults:[ read_step; bug skip_synchronize ]);
    (* A correct tree with call_rcu on: the only broken component is the
       background reclaimer's cookie discipline. *)
    mutant ~bug:early_free Sanitizer "reclaimer-early-free"
      (citrus_hunt ~call_rcu:true
         (module Citrus_int.Epoch)
         ~faults:[ read_step; bug early_free ]);
    mutant ~bug:single_flip Sanitizer "urcu-single-flip" (fun p ->
        hunt p
          (torture "urcu"
             (torture_cfg ~nest:false ~updates:400
                ~faults:(bug single_flip :: urcu_parks 0.15))));
    mutant ~bug:quiescent_in_section Sanitizer "qsbr-quiescent-in-section"
      (fun p ->
        hunt p
          (torture "qsbr"
             (torture_cfg ~nest:true ~updates:120
                ~faults:[ bug quiescent_in_section; hold_fault ])));
    control Sanitizer "citrus-skip-synchronize"
      (citrus_control ~call_rcu:false);
    (* Identical hunt configuration, correct reclaimer: the cookie wait
       must keep the sanitizer silent. *)
    control Sanitizer "reclaimer-early-free" (citrus_control ~call_rcu:true);
    control Sanitizer "urcu-single-flip" (fun p ->
        once
          (torture "urcu"
             (torture_cfg ~nest:false ~updates:60 ~faults:(urcu_parks 0.1))
             p.seed)
          "");
    control Sanitizer "qsbr-quiescent-in-section" (fun p ->
        once
          (torture "qsbr"
             (torture_cfg ~nest:true ~updates:60 ~faults:[ hold_fault ])
             p.seed)
          "");
    lockdep_mutant "lockdep-abba-delete" "bug.citrus.abba_delete";
    lockdep_mutant "lockdep-sync-in-read" "bug.citrus.sync_in_read";
    lockdep_mutant "lockdep-unbalanced-unlock" "bug.citrus.unbalanced_unlock";
    control Lockdep "lockdep-epoch" (lockdep_control (module Citrus_int.Epoch));
    control Lockdep "lockdep-urcu" (lockdep_control (module Citrus_int.Urcu));
    control Lockdep "lockdep-qsbr" (lockdep_control (module Citrus_int.Qsbr));
    chaos_mutant "forget-backlog-on-restart" "bug.router.forget_backlog"
      backlog;
    chaos_mutant "breaker-never-opens" "bug.breaker.never_open" breaker;
    chaos_mutant "drain-skips-deadline" "bug.router.skip_deadline" deadline;
    chaos_control "forget-backlog-on-restart" backlog;
    chaos_control "breaker-never-opens" breaker;
    chaos_control "drain-skips-deadline" deadline;
  ]
  @ List.map
      (fun (sc : Engine.scenario) -> mutant Model sc.name (explore Mutant sc))
      Models.mutants
  @ List.map
      (fun (sc : Engine.scenario) -> control Model sc.name (explore Control sc))
      Models.controls

let select ?(controls = true) suites =
  let suites = if suites = [] then [ Sanitizer ] else suites in
  List.filter
    (fun r -> List.mem r.suite suites && (controls || r.kind = Mutant))
    table

type result = { row : row; outcome : outcome; fired : int; ok : bool }

let run p row =
  Fault.reset_counters ();
  let outcome = row.run p in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 (Fault.stats ()) in
  match row.kind with
  | Mutant ->
      let fired = sum (fun (n, _, f) -> if Some n = row.bug then f else 0) in
      let ran = row.bug = None || fired > 0 in
      { row; outcome; fired; ok = outcome.detections > 0 && ran }
  | Control ->
      let hits =
        sum (fun (n, h, _) ->
            if String.starts_with ~prefix:"bug." n then h else 0)
      in
      { row; outcome; fired = hits; ok = outcome.detections = 0 && hits = 0 }

let pp_result r =
  let verdict =
    match (r.row.kind, r.ok) with
    | Mutant, true -> "CAUGHT"
    | Mutant, false when r.outcome.detections > 0 -> "NOISE"
    | Mutant, false -> "ESCAPED"
    | Control, true -> "silent"
    | Control, false -> "TRIPPED"
  in
  let bug =
    match (r.row.kind, r.row.bug) with
    | Mutant, Some b -> Printf.sprintf " %s fired=%d" b r.fired
    | Mutant, None -> ""
    | Control, _ -> Printf.sprintf " bug.* hits=%d" r.fired
  in
  Printf.sprintf "%-34s %-7s (attempts=%d detections=%d%s)%s" r.row.name
    verdict r.outcome.attempts r.outcome.detections bug
    (if r.outcome.detail = "" then "" else " " ^ r.outcome.detail)
