(* lint: repository-local static checks over the lib/ source tree, wired
   into `dune build @lint` (see HACKING.md). Every .ml is parsed with the
   compiler's own parser (compiler-libs) and the rules walk the
   parsetree, so comments and string literals can never trigger false
   positives the way a grep-based lint would. Rules:

   1. No [Mutex] / [Condition] (including through [Stdlib.]) outside
      lib/rcu/gp.ml: blocking primitives belong to the one audited wait
      queue, private to that file; anywhere else they would hide from the
      lockdep validator, which instruments [Spinlock] and that queue only.
   2. No [Obj.magic], anywhere: this repository proves its safety
      properties with runtime validators, and a single unsound cast
      voids all of them.
   3. No raw [Atomic] writes to documented lock-protected fields from
      outside the owning file: [gp_seq] (urcu — written only by the
      gp_lock holder), [ltag]/[rtag] (citrus — written only under the
      node lock). Reads stay free, as the algorithms require.
   4. Every .ml under lib/ has a matching .mli, so representation
      invariants stay sealed; module-type-only *_intf.ml files are
      exempt (an .mli would duplicate them token for token).
   5. No [Random] and no wall-clock-fed [Rng.create] seeding under
      lib/server/ or lib/workload/: every run in those layers must be
      replayable from the config's explicit seed (chaos schedules,
      mutation verdicts, and latency reports all depend on it).
   6. No get-then-set read-modify-write on the protocol counters
      ([gp_seq], [gp_completed], [gp_started], [scanning], [ltag],
      [rtag]): an [Atomic.set] whose value nests an [Atomic.get]
      of the same field loses concurrent updates — use [fetch_and_add] or
      [compare_and_set]. Reader slot words and the lock-held [gp_ctr]
      flip are exempt: their get-then-set is single-writer by protocol.
   7. [Sanitizer.on_defer] / [on_reclaim] — the shadow lifecycle of a
      retirement — only in lib/rcu/reclaimer.ml (the one retire path),
      lib/rcu/torture.ml (its inline-synchronize writer modes) and
      lib/baselines/rb_rcu.ml. Anywhere else they mark a second,
      hand-rolled retire path growing back; retire through
      [Reclaimer.call_rcu ?shadow] instead.
   8. No second seeded-bug switch: no module named [Buggy], and no
      labelled or optional parameter named [mutate...] or
      [forget_backlog]. A seeded bug is a [bug.*] fault point at its
      site plus one row of the mutant table (lib/mutants).
   9. No [Monotonic_clock.now] under lib/workload/ outside runner.ml
      (the one closed-loop timed loop) and open_loop.ml (the open-loop
      generator): a clock read anywhere else there is a second timed
      workload loop growing back.
  10. [Stall.note] / [Stall.report] only in lib/rcu/gp.ml (the one
      reader wait of the grace-period driver) and lib/rcu/stall.ml.
      Anywhere else they mark a second reader-wait loop growing back;
      wait through [Gp.wait_for_readers] or the gate instead.

   Exits 1 with file:line diagnostics on any violation, silently 0
   otherwise. *)

open Parsetree

let errors = ref 0

let err ~file ~line fmt =
  incr errors;
  Printf.ksprintf (fun s -> Printf.eprintf "%s:%d: %s\n" file line s) fmt

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* --- rule tables --- *)

let forbidden_modules = [ "Mutex"; "Condition" ]
let mutex_exempt file = Filename.check_suffix file "rcu/gp.ml"

(* field name -> the one file allowed to write it through Atomic. *)
let protected_fields =
  [
    ("gp_seq", "lib/rcu/urcu.ml");
    ("ltag", "lib/citrus/citrus.ml");
    ("rtag", "lib/citrus/citrus.ml");
  ]

let atomic_write_fns =
  [ "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]

(* Layers that must replay deterministically from their config seed. *)
let deterministic_dirs = [ "lib/server/"; "lib/workload/" ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let in_deterministic_dir file =
  List.exists (contains_sub file) deterministic_dirs

(* Idents that smuggle wall-clock time into an Rng seed. *)
let wall_clock_idents = [ "gettimeofday"; "time"; "now_ns"; "now" ]

(* Fields whose writers race: a get-then-set RMW on them is a lost-update
   bug. Reader slot words ([slot]) and [gp_ctr] are deliberately absent —
   their get-then-set is single-writer (own slot, or under gp_lock). *)
let rmw_fields =
  [
    "gp_seq";
    "gp_completed";
    "gp_started";
    "scanning";
    "ltag";
    "rtag";
  ]

(* Rule 7: the sanitizer's retirement transitions and the files allowed
   to drive them (the sanitizer itself defines them). *)
let retire_transitions = [ "on_defer"; "on_reclaim" ]

let retire_owners =
  [
    "lib/rcu/reclaimer.ml";
    "lib/rcu/torture.ml";
    "lib/baselines/rb_rcu.ml";
    "lib/sanitizer/sanitizer.ml";
  ]

(* Rule 8: the shapes a per-module seeded-bug switch takes. *)
let is_bug_switch_param = function
  | Asttypes.Labelled l | Asttypes.Optional l ->
      String.starts_with ~prefix:"mutate" l || l = "forget_backlog"
  | Asttypes.Nolabel -> false

let check_bug_module ~file ~line = function
  | Some "Buggy" ->
      err ~file ~line
        "a module named Buggy: a second seeded-bug switch mechanism — \
         register a bug.* fault point at the site and a mutant table row \
         instead"
  | _ -> ()

let check_bug_param ~file ~line label =
  if is_bug_switch_param label then
    err ~file ~line
      "parameter %s: a second seeded-bug switch mechanism — register a \
       bug.* fault point at the site and a mutant table row instead"
      (match label with
      | Asttypes.Labelled l -> "~" ^ l
      | Asttypes.Optional l -> "?" ^ l
      | Asttypes.Nolabel -> "_")

(* Rule 9: the only files under lib/workload/ that may read the clock. *)
let clock_owners = [ "lib/workload/runner.ml"; "lib/workload/open_loop.ml" ]

let check_clock ~file (lid : Longident.t Location.loc) =
  match List.rev (Longident.flatten lid.txt) with
  | "now" :: "Monotonic_clock" :: _
    when contains_sub file "lib/workload/"
         && not (List.exists (Filename.check_suffix file) clock_owners) ->
      err ~file ~line:(line_of lid.loc)
        "Monotonic_clock.now outside Runner and Open_loop: a second timed \
         workload loop — time operations in Runner.run's sampled loop"
  | _ -> ()

(* Rule 10: the files that may name a stall — the driver's one reader
   wait and the watchdog itself. *)
let stall_owners = [ "lib/rcu/gp.ml"; "lib/rcu/stall.ml" ]

let check_stall ~file (lid : Longident.t Location.loc) =
  match List.rev (Longident.flatten lid.txt) with
  | (("note" | "report") as fn) :: "Stall" :: _
    when not (List.exists (Filename.check_suffix file) stall_owners) ->
      err ~file ~line:(line_of lid.loc)
        "Stall.%s outside the grace-period driver: a second reader-wait \
         loop — wait through Gp.wait_for_readers or the coalescing gate"
        fn
  | _ -> ()

(* --- parsetree rules --- *)

(* Module components of a dotted path: all but the final value/type name
   for idents and type constructors, every component for module paths.
   [Stdlib.Mutex.lock] and [Mutex.lock] both expose "Mutex". *)
let check_modules ~file ~all (lid : Longident.t Location.loc) =
  let comps = Longident.flatten lid.txt in
  let modules =
    if all then comps
    else match List.rev comps with [] -> [] | _ :: ms -> List.rev ms
  in
  List.iter
    (fun m ->
      if List.mem m forbidden_modules && not (mutex_exempt file) then
        err ~file ~line:(line_of lid.loc)
          "use of %s: blocking primitives are reserved for the private \
           wait queue in lib/rcu/gp.ml; use Spinlock so lockdep sees the \
           lock"
          m;
      if m = "Random" && in_deterministic_dir file then
        err ~file ~line:(line_of lid.loc)
          "use of Random: the serving and workload layers must replay \
           deterministically — thread a Repro_sync.Rng seeded from the \
           config instead")
    modules;
  match comps with
  | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] ->
      err ~file ~line:(line_of lid.loc)
        "Obj.magic: unsound casts are forbidden in lib/"
  | _ -> ()

let check_retire ~file (lid : Longident.t Location.loc) =
  let name = Longident.last lid.txt in
  if
    List.mem name retire_transitions
    && not (List.exists (Filename.check_suffix file) retire_owners)
  then
    err ~file ~line:(line_of lid.loc)
      "Sanitizer.%s outside the reclaimer: a second retire path — retire \
       through Reclaimer.call_rcu ?shadow instead"
      name

(* Protected-field accesses anywhere inside [e] (the arguments of an
   Atomic write): each is a violation unless [file] owns the field. *)
let check_protected_args ~file ~call_line e =
  let rec it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun _ ex ->
          (match ex.pexp_desc with
          | Pexp_field (_, fld) -> (
              let name = Longident.last fld.txt in
              match List.assoc_opt name protected_fields with
              | Some owner when not (Filename.check_suffix file owner) ->
                  err ~file ~line:call_line
                    "raw Atomic write touching lock-protected field %S \
                     (written only by %s under its documented lock)"
                    name owner
              | Some _ | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e

(* Wall-clock idents anywhere inside [e] (the arguments of an Rng.create
   call in a deterministic layer): each one is a seeding violation. *)
let check_seed_args ~file ~call_line e =
  let rec it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun _ ex ->
          (match ex.pexp_desc with
          | Pexp_ident lid ->
              let name = Longident.last lid.txt in
              if List.mem name wall_clock_idents then
                err ~file ~line:call_line
                  "Rng.create seeded from the wall clock (%s): the serving \
                   and workload layers must replay deterministically from \
                   the config's explicit seed"
                  name
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e

(* Every record field name accessed anywhere inside [e]. *)
let fields_in e =
  let acc = ref [] in
  let rec it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun _ ex ->
          (match ex.pexp_desc with
          | Pexp_field (_, fld) -> acc := Longident.last fld.txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e;
  !acc

(* Does [e] contain an [Atomic.get] whose argument touches field
   [fname]?  The witness of a get-then-set RMW when [e] is the value
   being [Atomic.set] into that same field. *)
let gets_field ~fname e =
  let found = ref false in
  let rec it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun _ ex ->
          (match ex.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident fn; _ }, args) -> (
              match Longident.flatten fn.txt with
              | [ "Atomic"; "get" ] | [ "Stdlib"; "Atomic"; "get" ] ->
                  List.iter
                    (fun (_, a) ->
                      if List.mem fname (fields_in a) then found := true)
                    args
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e;
  !found

let check_rmw ~file ~call_line args =
  match args with
  | (_, target) :: value_args ->
      List.iter
        (fun fname ->
          if
            List.mem fname rmw_fields
            && List.exists (fun (_, v) -> gets_field ~fname v) value_args
          then
            err ~file ~line:call_line
              "get-then-set read-modify-write on %S: a concurrent writer \
               between the Atomic.get and the Atomic.set is silently \
               overwritten — use Atomic.fetch_and_add or a \
               compare_and_set loop"
              fname)
        (fields_in target)
  | [] -> ()

let check_file file =
  let str =
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lexbuf = Lexing.from_channel ic in
        Location.init lexbuf file;
        try Some (Parse.implementation lexbuf)
        with e ->
          err ~file ~line:1 "parse error: %s" (Printexc.to_string e);
          None)
  in
  match str with
  | None -> ()
  | Some str ->
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_fun (label, _, _, _) ->
                  check_bug_param ~file ~line:(line_of e.pexp_loc) label
              | Pexp_letmodule (name, _, _) ->
                  check_bug_module ~file ~line:(line_of name.loc) name.txt
              | Pexp_ident lid ->
                  check_modules ~file ~all:false lid;
                  check_retire ~file lid;
                  check_clock ~file lid;
                  check_stall ~file lid
              | Pexp_new lid -> check_modules ~file ~all:false lid
              | Pexp_apply
                  ({ pexp_desc = Pexp_ident fn; pexp_loc; _ }, args) -> (
                  let call_line = line_of pexp_loc in
                  match Longident.flatten fn.txt with
                  | [ "Atomic"; w ] | [ "Stdlib"; "Atomic"; w ]
                    when List.mem w atomic_write_fns ->
                      List.iter
                        (fun (_, a) ->
                          check_protected_args ~file ~call_line a)
                        args;
                      if w = "set" || w = "exchange" then
                        check_rmw ~file ~call_line args
                  | comps -> (
                      match List.rev comps with
                      | "create" :: "Rng" :: _
                        when in_deterministic_dir file ->
                          List.iter
                            (fun (_, a) ->
                              check_seed_args ~file ~call_line a)
                            args
                      | _ -> ()))
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
          typ =
            (fun it t ->
              (match t.ptyp_desc with
              | Ptyp_arrow (label, _, _) ->
                  check_bug_param ~file ~line:(line_of t.ptyp_loc) label
              | Ptyp_constr (lid, _) -> check_modules ~file ~all:false lid
              | Ptyp_class (lid, _) -> check_modules ~file ~all:false lid
              | _ -> ());
              Ast_iterator.default_iterator.typ it t);
          module_binding =
            (fun it mb ->
              check_bug_module ~file ~line:(line_of mb.pmb_name.loc)
                mb.pmb_name.txt;
              Ast_iterator.default_iterator.module_binding it mb);
          module_declaration =
            (fun it md ->
              check_bug_module ~file ~line:(line_of md.pmd_name.loc)
                md.pmd_name.txt;
              Ast_iterator.default_iterator.module_declaration it md);
          module_expr =
            (fun it m ->
              (match m.pmod_desc with
              | Pmod_ident lid -> check_modules ~file ~all:true lid
              | _ -> ());
              Ast_iterator.default_iterator.module_expr it m);
        }
      in
      it.structure it str

(* --- rule 4 + directory walk --- *)

let check_has_mli file =
  if
    Filename.check_suffix file ".ml"
    && (not (Filename.check_suffix file "_intf.ml"))
    && not (Sys.file_exists (file ^ "i"))
  then
    err ~file ~line:1
      "missing interface: every lib/ module is sealed by an .mli \
       (module-type files are *_intf.ml)"

let rec walk dir =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then walk path
      else if Filename.check_suffix path ".ml" then begin
        check_has_mli path;
        check_file path
      end)
    (Sys.readdir dir)

let () =
  let roots =
    match Array.to_list Sys.argv with [] | [ _ ] -> [ "lib" ] | _ :: r -> r
  in
  List.iter walk roots;
  if !errors > 0 then begin
    Printf.eprintf "lint: %d violation(s)\n" !errors;
    exit 1
  end
