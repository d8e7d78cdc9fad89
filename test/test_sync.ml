(* Unit and property tests for the concurrency substrate (lib/sync). *)

module Spinlock = Repro_sync.Spinlock
module Backoff = Repro_sync.Backoff
module Barrier = Repro_sync.Barrier
module Rng = Repro_sync.Rng
module Registry = Repro_sync.Registry
module Stats = Repro_sync.Stats

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Spinlock --- *)

let test_spinlock_basic () =
  let l = Spinlock.create () in
  checkb "initially free" false (Spinlock.is_locked l);
  Spinlock.acquire l;
  checkb "locked after acquire" true (Spinlock.is_locked l);
  checkb "try_acquire fails when held" false (Spinlock.try_acquire l);
  Spinlock.release l;
  checkb "free after release" false (Spinlock.is_locked l);
  checkb "try_acquire succeeds when free" true (Spinlock.try_acquire l);
  Spinlock.release l

let test_spinlock_release_unheld () =
  let l = Spinlock.create () in
  Alcotest.check_raises "double release"
    (Invalid_argument "Spinlock.release: lock was not held") (fun () ->
      Spinlock.release l)

let test_spinlock_with_lock_exception () =
  let l = Spinlock.create () in
  (try Spinlock.with_lock l (fun () -> failwith "boom") with Failure _ -> ());
  checkb "released after exception" false (Spinlock.is_locked l);
  (* The lock must remain fully usable after the unwound section. *)
  Spinlock.with_lock l (fun () -> checkb "re-lockable" true (Spinlock.is_locked l));
  checkb "free again" false (Spinlock.is_locked l)

(* Lockdep-armed misuse detection (debug mode): double unlock and foreign
   unlock are structured violations raised *before* the lock word is
   touched, so the real holder is never broken. Disarmed, the historical
   Invalid_argument on a free lock still applies (tested above). *)

module Lockdep = Repro_lockdep.Lockdep

let with_lockdep f =
  Lockdep.reset ();
  Fun.protect ~finally:Lockdep.reset (fun () ->
      Repro_fault.Arm.(with_ lockdep) f)

let test_spinlock_double_unlock_armed () =
  with_lockdep (fun () ->
      let l = Spinlock.create () in
      Spinlock.acquire l;
      Spinlock.release l;
      match Spinlock.release l with
      | () -> Alcotest.fail "double unlock not detected"
      | exception Lockdep.Violation r ->
          checkb "release-not-held report" true
            (r.Lockdep.kind = Lockdep.Release_not_held))

let test_spinlock_foreign_unlock_armed () =
  with_lockdep (fun () ->
      let l = Spinlock.create () in
      (* Another domain takes the lock and keeps holding it. *)
      Domain.join (Domain.spawn (fun () -> Spinlock.acquire l));
      (match Spinlock.release l with
      | () -> Alcotest.fail "foreign unlock not detected"
      | exception Lockdep.Violation r ->
          checkb "release-not-held report" true
            (r.Lockdep.kind = Lockdep.Release_not_held));
      (* The refused release must leave the holder's lock intact. *)
      checkb "lock state untouched" true (Spinlock.is_locked l))

let test_spinlock_mutual_exclusion () =
  let l = Spinlock.create () in
  let counter = ref 0 in
  let iterations = 10_000 in
  let worker () =
    for _ = 1 to iterations do
      Spinlock.acquire l;
      (* Non-atomic increment: only correct if the lock really excludes. *)
      counter := !counter + 1;
      Spinlock.release l
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  checki "all increments preserved" (4 * iterations) !counter

(* --- Backoff --- *)

let test_backoff_escalates () =
  let b = Backoff.create ~max_spins:4 () in
  for _ = 1 to 100 do
    Backoff.once b
  done;
  checki "counts steps" 100 (Backoff.spins b);
  Backoff.reset b;
  checki "reset clears count" 0 (Backoff.spins b)

(* --- Barrier --- *)

let test_barrier_reusable () =
  let n = 4 in
  let bar = Barrier.create n in
  let rounds = 50 in
  let log = Array.make n 0 in
  let worker i () =
    for r = 1 to rounds do
      log.(i) <- r;
      Barrier.wait bar;
      (* After the barrier, every participant must have reached round r. *)
      Array.iter (fun v -> assert (v >= r)) log;
      Barrier.wait bar
    done
  in
  let domains = List.init n (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  checki "parties" n (Barrier.parties bar)

let test_barrier_second_cohort () =
  (* A barrier must reset itself completely: a second, entirely fresh
     cohort of domains (not the same ones looping) passes it too. *)
  let n = 3 in
  let bar = Barrier.create n in
  let wave () =
    let ds = List.init n (fun _ -> Domain.spawn (fun () -> Barrier.wait bar)) in
    List.iter Domain.join ds
  in
  wave ();
  wave ();
  checki "parties unchanged" n (Barrier.parties bar)

let test_barrier_invalid () =
  Alcotest.check_raises "zero parties"
    (Invalid_argument "Barrier.create: parties must be positive") (fun () ->
      ignore (Barrier.create 0))

(* --- Rng (SplitMix64) --- *)

(* Reference outputs for seed 0 from the canonical SplitMix64 (Steele, Lea &
   Flood; same constants as Java's SplittableRandom). *)
let test_rng_reference_vector () =
  let r = Rng.create 0L in
  let expected =
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]
  in
  List.iter
    (fun e ->
      Alcotest.check Alcotest.int64 "splitmix64 output" e (Rng.next64 r))
    expected

let test_rng_int_bounds () =
  let r = Rng.create 42L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_determinism () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let xs = List.init 100 (fun _ -> Rng.next64 a) in
  let ys = List.init 100 (fun _ -> Rng.next64 b) in
  checkb "streams differ" true (xs <> ys)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:1000 QCheck.int64
    (fun seed ->
      let r = Rng.create seed in
      let f = Rng.float r in
      f >= 0.0 && f < 1.0)

(* --- Registry --- *)

let test_registry_acquire_release () =
  let reg = Registry.create ~capacity:3 ~make:(fun i -> i * 10) in
  let a = Registry.acquire reg in
  let b = Registry.acquire reg in
  let c = Registry.acquire reg in
  checki "distinct slots" 3 (List.length (List.sort_uniq compare [ a; b; c ]));
  checki "active" 3 (Registry.active reg);
  Alcotest.check_raises "full" Registry.Full (fun () ->
      ignore (Registry.acquire reg));
  Registry.release reg b;
  checki "slot reused" b (Registry.acquire reg);
  checki "payload" (a * 10) (Registry.get reg a);
  checki "capacity" 3 (Registry.capacity reg)

let test_registry_double_release () =
  let reg = Registry.create ~capacity:1 ~make:(fun _ -> ()) in
  let s = Registry.acquire reg in
  Registry.release reg s;
  Alcotest.check_raises "double release"
    (Invalid_argument "Registry.release: slot was not held") (fun () ->
      Registry.release reg s)

let test_registry_concurrent () =
  let capacity = 16 in
  let reg = Registry.create ~capacity ~make:(fun i -> i) in
  let worker () =
    for _ = 1 to 1000 do
      match Registry.acquire reg with
      | slot -> Registry.release reg slot
      | exception Registry.Full -> ()
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  checki "all free at the end" 0 (Registry.active reg)

(* --- Stats --- *)

let test_stats_counter () =
  let c = Stats.create ~stripes:4 "ops" in
  for i = 0 to 99 do
    Stats.incr c i
  done;
  Stats.add c 0 50;
  checki "sum over stripes" 150 (Stats.read c);
  Stats.reset c;
  checki "reset" 0 (Stats.read c);
  check Alcotest.string "name" "ops" (Stats.name c)

let test_stats_group () =
  let g = Stats.group () in
  let a = Stats.counter g "a" in
  let b = Stats.counter g "b" in
  Stats.incr a 0;
  Stats.add b 0 2;
  Alcotest.check
    Alcotest.(list (pair string int))
    "dump in creation order"
    [ ("a", 1); ("b", 2) ]
    (Stats.dump g)

let test_stats_concurrent () =
  let c = Stats.create "hits" in
  let per_domain = 25_000 in
  let worker i () =
    for _ = 1 to per_domain do
      Stats.incr c i
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  checki "no lost updates" (4 * per_domain) (Stats.read c)

let () =
  Alcotest.run "sync"
    [
      ( "spinlock",
        [
          Alcotest.test_case "basic" `Quick test_spinlock_basic;
          Alcotest.test_case "release unheld" `Quick
            test_spinlock_release_unheld;
          Alcotest.test_case "with_lock exception" `Quick
            test_spinlock_with_lock_exception;
          Alcotest.test_case "mutual exclusion" `Quick
            test_spinlock_mutual_exclusion;
          Alcotest.test_case "double unlock (lockdep)" `Quick
            test_spinlock_double_unlock_armed;
          Alcotest.test_case "foreign unlock (lockdep)" `Quick
            test_spinlock_foreign_unlock_armed;
        ] );
      ( "backoff",
        [ Alcotest.test_case "escalates and resets" `Quick test_backoff_escalates ] );
      ( "barrier",
        [
          Alcotest.test_case "reusable rounds" `Quick test_barrier_reusable;
          Alcotest.test_case "second cohort" `Quick test_barrier_second_cohort;
          Alcotest.test_case "invalid parties" `Quick test_barrier_invalid;
        ] );
      ( "rng",
        [
          Alcotest.test_case "reference vector" `Quick test_rng_reference_vector;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          QCheck_alcotest.to_alcotest prop_rng_float_unit;
        ] );
      ( "registry",
        [
          Alcotest.test_case "acquire/release" `Quick
            test_registry_acquire_release;
          Alcotest.test_case "double release" `Quick test_registry_double_release;
          Alcotest.test_case "concurrent churn" `Quick test_registry_concurrent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_stats_counter;
          Alcotest.test_case "group dump" `Quick test_stats_group;
          Alcotest.test_case "concurrent increments" `Quick
            test_stats_concurrent;
        ] );
    ]
