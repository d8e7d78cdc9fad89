(* Fixture-based tests for bin/lint.ml: each pass must fire on exactly
   its seeded-bad fixture and stay silent on the good ones.

   test/lint_fixtures/ is a data_only_dir (dune never compiles it), laid
   out like a miniature lib/ — including lib/server/ and lib/workload/
   subtrees so the path-scoped determinism pass exercises its scoping.
   The lint binary is run over that tree exactly as `dune build @lint`
   runs it over lib/, and its stderr is parsed line by line. *)

let fixture_root = "lint_fixtures"

(* message fragment -> the one fixture file allowed to produce it *)
let expected =
  [
    ("use of Mutex", "lint_fixtures/bad_mutex.ml");
    ("Obj.magic", "lint_fixtures/bad_magic.ml");
    ("lock-protected field", "lint_fixtures/bad_protected.ml");
    ("missing interface", "lint_fixtures/bad_no_mli.ml");
    ("read-modify-write", "lint_fixtures/bad_rmw.ml");
    ("use of Random", "lint_fixtures/lib/server/bad_random.ml");
    ("wall clock", "lint_fixtures/lib/workload/bad_clock_seed.ml");
    ("outside the reclaimer", "lint_fixtures/bad_retire.ml");
    ("seeded-bug switch", "lint_fixtures/bad_bug_switch.ml");
    ("second timed", "lint_fixtures/lib/workload/bad_timed_loop.ml");
    ("second reader-wait", "lint_fixtures/lib/rcu/bad_wait_loop.ml");
  ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let run_lint () =
  let cmd = Printf.sprintf "../bin/lint.exe %s 2>&1" fixture_root in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (List.rev !lines, status)

(* The diagnostic lines: "file:line: message" on fixture files (the
   trailing "lint: N violation(s)" summary is not one). *)
let diagnostics lines =
  List.filter (fun l -> contains_sub l (fixture_root ^ "/")) lines

let test_exit_and_summary () =
  let lines, status = run_lint () in
  (match status with
  | Unix.WEXITED 1 -> ()
  | Unix.WEXITED n -> Alcotest.failf "lint exited %d, expected 1" n
  | _ -> Alcotest.fail "lint killed by signal");
  Alcotest.(check bool)
    "summary line present" true
    (List.exists (fun l -> contains_sub l "violation(s)") lines)

let test_each_pass_fires () =
  let lines, _ = run_lint () in
  List.iter
    (fun (msg, file) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S reported against %s" msg file)
        true
        (List.exists
           (fun l -> contains_sub l file && contains_sub l msg)
           (diagnostics lines)))
    expected

let test_no_cross_fire () =
  (* Every diagnostic names a seeded-bad file, and carries only that
     file's expected message — no pass fires on another pass's fixture
     or on a good file. *)
  let lines, _ = run_lint () in
  List.iter
    (fun l ->
      match
        List.find_opt (fun (_, file) -> contains_sub l file) expected
      with
      | None -> Alcotest.failf "diagnostic against an unexpected file: %s" l
      | Some (msg, file) ->
          Alcotest.(check bool)
            (Printf.sprintf "only %S may fire on %s (got: %s)" msg file l)
            true (contains_sub l msg))
    (diagnostics lines);
  List.iter
    (fun good ->
      Alcotest.(check bool)
        (good ^ " stays clean")
        false
        (List.exists (fun l -> contains_sub l good) (diagnostics lines)))
    [ "good.ml"; "good_seed.ml"; "good_bug_point.ml"; "lib/rcu/reclaimer.ml" ]

let test_bug_switch_shapes () =
  (* Rule 8 names both shapes a seeded-bug switch takes: the module and
     the constructor knob. *)
  let lines, _ = run_lint () in
  List.iter
    (fun shape ->
      Alcotest.(check bool)
        (shape ^ " reported") true
        (List.exists
           (fun l ->
             contains_sub l "bad_bug_switch.ml" && contains_sub l shape)
           (diagnostics lines)))
    [ "module named Buggy"; "parameter ?mutate_skip" ]

let test_real_tree_clean () =
  (* The passes hold on the actual library source: `lint lib` from the
     repo root is what `dune build @lint` enforces, and it must be
     silent — in particular the new determinism and RMW passes must not
     false-positive on the slot words, the lock-held gp_ctr flip, or the
     config-seeded Rngs. *)
  if not (Sys.file_exists "../../../lib") then () else
  let ic = Unix.open_process_in "../bin/lint.exe ../../../lib 2>&1" in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) "no output" true (!lines = []);
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "lint over lib/ must exit 0"

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "exit code and summary" `Quick
            test_exit_and_summary;
          Alcotest.test_case "each pass fires on its fixture" `Quick
            test_each_pass_fires;
          Alcotest.test_case "no pass cross-fires" `Quick test_no_cross_fire;
          Alcotest.test_case "seeded-bug switch shapes" `Quick
            test_bug_switch_shapes;
          Alcotest.test_case "real lib/ tree is clean" `Quick
            test_real_tree_clean;
        ] );
    ]
