(* Named, seeded fault-injection points (the rcutorture / failpoint idea).

   The design constraints, in order:

   1. The unobserved hot path must be unchanged: every call site is
      [if Fault.enabled () then Fault.inject point] — one load of the
      arming word ([Arm]) and a branch when no point is armed; hot sites
      that already loaded the word test its fault bit instead.
   2. Deterministic: whether a given arrival fires is a pure function of
      (global seed, point, domain, arrival number), so a failing schedule
      can be replayed from its seed.
   3. Global and name-addressed: points are registered by the subsystem
      that owns the window (grace-period flips, lock acquisition, the
      Citrus delete window) and armed by name from the CLI
      (--fault POINT=RATE) or the environment (REPRO_FAULTS).

   The RNG is SplitMix64 (same generator as Repro_sync.Rng; duplicated
   here because this library sits *below* repro_sync so the locks can
   inject). States are striped by domain id: each domain draws from its
   own stream, so concurrent arrivals stay deterministic per domain. *)

type action =
  | Yield of int (* storm of [n] Domain.cpu_relax calls *)
  | Delay_ns of int (* busy-wait for [n] nanoseconds *)
  | Raise (* raise [Injected point_name] out of the window *)

exception Injected of string

type t = {
  id : int;
  name : string;
  threshold : int Atomic.t;
      (* fire when a 30-bit draw is < threshold; 0 = disarmed,
         [rate_scale] = always *)
  mutable action : action;
  hits : int Atomic.t; (* arrivals while armed *)
  fired : int Atomic.t; (* arrivals that triggered the fault *)
  states : int64 array; (* per-domain-stripe RNG state *)
}

exception Unknown_point of string

let rate_scale = 1 lsl 30
let stripes = 64
let stripe_mask = stripes - 1

let default_action = Yield 256

(* Any point armed? The fault bit of the arming word, kept in step with
   the thresholds by [refresh_on]. *)
let enabled () = Arm.word () land Arm.fault <> 0

let registered : t list ref = ref [] (* newest first *)
let global_seed = ref 0x5EEDL

(* SplitMix64, as in Repro_sync.Rng. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let stripe_seed seed id stripe =
  mix64
    (Int64.add seed
       (Int64.of_int (((id + 1) * 8_191) + (stripe * 131_071))))

let reseed_point seed p =
  for s = 0 to stripes - 1 do
    p.states.(s) <- stripe_seed seed p.id s
  done

let find name = List.find_opt (fun p -> p.name = name) !registered

let register name =
  match find name with
  | Some p -> p
  | None ->
      let p =
        {
          id = List.length !registered;
          name;
          threshold = Atomic.make 0;
          action = default_action;
          hits = Atomic.make 0;
          fired = Atomic.make 0;
          states = Array.make stripes 0L;
        }
      in
      reseed_point !global_seed p;
      registered := p :: !registered;
      p

let name p = p.name
let points () = List.rev !registered

let rate p = float_of_int (Atomic.get p.threshold) /. float_of_int rate_scale

let refresh_on () =
  if List.exists (fun p -> Atomic.get p.threshold > 0) !registered then
    Arm.set Arm.fault
  else Arm.clear Arm.fault

let arm_point p ~rate ?action () =
  if not (Float.is_finite rate) || rate < 0.0 || rate > 1.0 then
    invalid_arg "Fault.set: rate must be within [0, 1]";
  (match action with Some a -> p.action <- a | None -> ());
  Atomic.set p.threshold
    (int_of_float (Float.round (rate *. float_of_int rate_scale)));
  refresh_on ()

let set ?action pname ~rate =
  match find pname with
  | Some p -> arm_point p ~rate ?action ()
  | None -> raise (Unknown_point pname)

let set_seed seed =
  global_seed := seed;
  List.iter (reseed_point seed) !registered

let seed () = !global_seed

let disable_all () =
  List.iter (fun p -> Atomic.set p.threshold 0) !registered;
  Arm.clear Arm.fault

let configure ?seed specs =
  disable_all ();
  (match seed with Some s -> set_seed s | None -> ());
  List.iter (fun (pname, rate) -> set pname ~rate) specs

let reset_counters () =
  List.iter
    (fun p ->
      Atomic.set p.hits 0;
      Atomic.set p.fired 0)
    !registered

let stats () =
  List.rev_map
    (fun p -> (p.name, Atomic.get p.hits, Atomic.get p.fired))
    !registered

(* The deterministic coin. Only called from the slow side of the
   [enabled ()] branch, so per-arrival cost is off the disabled path. *)
let fires p =
  let thr = Atomic.get p.threshold in
  if thr <= 0 then false
  else begin
    Atomic.incr p.hits;
    let s = (Domain.self () :> int) land stripe_mask in
    (* Benign race: stripes are effectively domain-private; a collision
       only interleaves two deterministic streams. *)
    let z = Int64.add p.states.(s) golden_gamma in
    p.states.(s) <- z;
    let draw = Int64.to_int (Int64.shift_right_logical (mix64 z) 34) in
    let fired = draw < thr in
    if fired then Atomic.incr p.fired;
    fired
  end

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let perform p =
  match p.action with
  | Yield n ->
      for _ = 1 to n do
        Domain.cpu_relax ()
      done
  | Delay_ns n ->
      let deadline = now_ns () + n in
      while now_ns () < deadline do
        Domain.cpu_relax ()
      done
  | Raise -> raise (Injected p.name)

let inject p = if fires p then perform p

(* --- specs: "POINT=RATE", with optional ":yield=N" / ":delay_ns=N" /
   ":raise" --- *)

let parse_action s =
  let err () =
    Error
      (Printf.sprintf
         "bad fault action %S (want yield=N, delay_ns=N, or raise)" s)
  in
  match s with
  | "raise" -> Ok Raise
  | _ -> (
      match String.index_opt s '=' with
      | None -> err ()
      | Some i -> (
          let kind = String.sub s 0 i in
          let arg = String.sub s (i + 1) (String.length s - i - 1) in
          match (kind, int_of_string_opt arg) with
          | "yield", Some n when n > 0 -> Ok (Yield n)
          | "delay_ns", Some n when n > 0 -> Ok (Delay_ns n)
          | _ -> err ()))

let parse_spec spec =
  match String.index_opt spec '=' with
  | None | Some 0 ->
      Error (Printf.sprintf "bad fault spec %S (want POINT=RATE)" spec)
  | Some i -> (
      let pname = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let rate_s, action_s =
        match String.index_opt rest ':' with
        | None -> (rest, None)
        | Some j ->
            ( String.sub rest 0 j,
              Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      match float_of_string_opt rate_s with
      | Some rate when Float.is_finite rate && rate >= 0.0 && rate <= 1.0 -> (
          match action_s with
          | None -> Ok (pname, rate, None)
          | Some s -> (
              match parse_action s with
              | Ok a -> Ok (pname, rate, Some a)
              | Error e -> Error e))
      | Some _ | None ->
          Error
            (Printf.sprintf "bad fault rate %S in %S (want a float in [0,1])"
               rate_s spec))

(* --- the well-known catalogue ---

   Pre-registered here (rather than only at each subsystem's module
   initialization) so `Fault.points ()` and strict [set] see the full
   catalogue regardless of which subsystems the linker kept. The owning
   subsystems call [register] with the same names and get these points
   back. Catalogue documentation: ROBUSTNESS.md. *)

let catalogue =
  [
    "urcu.sync.pre_flip";
    "urcu.read.enter";
    "qsbr.wait";
    "epoch.advance";
    "defer.flush";
    "lock.spin.acquire";
    "citrus.delete.window";
    "citrus.read.step";
    "torture.reader.hold";
    "server.updater.crash";
    "server.drain.stall";
    "rcu.reclaim.crash";
    "server.enqueue";
    "server.drain";
    (* Seeded bugs: each [bug.*] point, armed at rate 1.0, switches on one
       deliberate defect at its site so a mutant hunt can prove a checker
       catches it (the mutant table in lib/mutants). *)
    "bug.urcu.single_flip";
    "bug.qsbr.quiescent_in_section";
    "bug.reclaimer.early_free";
    "bug.gp.skip_synchronize";
    "bug.citrus.abba_delete";
    "bug.citrus.sync_in_read";
    "bug.citrus.unbalanced_unlock";
    "bug.router.forget_backlog";
    "bug.router.skip_deadline";
    "bug.breaker.never_open";
  ]

let () = List.iter (fun n -> ignore (register n)) catalogue

(* --- environment configuration ---

   REPRO_FAULT_SEED=<int64> and REPRO_FAULTS=POINT=RATE[,POINT=RATE...]
   arm points at process start; unknown env-named points are registered on
   the fly so ordering against subsystem initialization never matters. *)

let () =
  (match Sys.getenv_opt "REPRO_FAULT_SEED" with
  | Some s -> (
      match Int64.of_string_opt s with
      | Some seed -> set_seed seed
      | None -> Printf.eprintf "repro_fault: ignoring bad REPRO_FAULT_SEED %S\n%!" s)
  | None -> ());
  match Sys.getenv_opt "REPRO_FAULTS" with
  | None -> ()
  | Some specs ->
      List.iter
        (fun spec ->
          if spec <> "" then
            match parse_spec spec with
            | Ok (pname, rate, action) ->
                arm_point (register pname) ~rate ?action ()
            | Error msg -> Printf.eprintf "repro_fault: %s\n%!" msg)
        (String.split_on_char ',' specs)
