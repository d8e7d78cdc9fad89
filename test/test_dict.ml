(* Generic conformance suite: every dictionary implementation behind the
   DICT interface gets the same battery — sequential semantics, randomized
   equivalence against stdlib Map, deterministic concurrent partitions, and
   full-contention stress followed by an invariant check. *)

module IntMap = Map.Make (Int)
module Barrier = Repro_sync.Barrier
module Rng = Repro_sync.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Conformance (D : Repro_dict.Dict.DICT) = struct
  let with_dict f =
    let t = D.create () in
    let h = D.register t in
    let r = f t h in
    D.unregister h;
    r

  let test_empty () =
    with_dict @@ fun t h ->
    checki "size" 0 (D.size t);
    checkb "mem" false (D.mem h 5);
    checkb "delete absent" false (D.delete h 5);
    Alcotest.check Alcotest.(option int) "contains" None (D.contains h 5);
    D.check t

  let test_basic_lifecycle () =
    with_dict @@ fun t h ->
    checkb "insert" true (D.insert h 10 100);
    checkb "duplicate insert" false (D.insert h 10 999);
    Alcotest.check Alcotest.(option int) "value preserved" (Some 100)
      (D.contains h 10);
    checkb "insert second" true (D.insert h 5 50);
    checkb "insert third" true (D.insert h 15 150);
    checki "size" 3 (D.size t);
    Alcotest.check
      Alcotest.(list (pair int int))
      "sorted bindings"
      [ (5, 50); (10, 100); (15, 150) ]
      (D.to_list t);
    checkb "delete" true (D.delete h 10);
    checkb "delete again" false (D.delete h 10);
    checkb "others remain" true (D.mem h 5 && D.mem h 15);
    checkb "reinsert deleted key" true (D.insert h 10 1);
    Alcotest.check Alcotest.(option int) "new value" (Some 1) (D.contains h 10);
    D.check t

  let test_ascending_descending () =
    with_dict @@ fun t h ->
    for k = 1 to 200 do
      checkb "asc insert" true (D.insert h k k)
    done;
    D.check t;
    for k = 200 downto 1 do
      checkb "desc delete" true (D.delete h k)
    done;
    checki "empty again" 0 (D.size t);
    D.check t

  let test_boundary_keys () =
    with_dict @@ fun t h ->
    let lo = D.min_key and hi = D.max_key - 1 in
    checkb "lowest key" true (D.insert h lo 1);
    checkb "highest key" true (D.insert h hi 2);
    checkb "mem lo" true (D.mem h lo);
    checkb "mem hi" true (D.mem h hi);
    checkb "delete lo" true (D.delete h lo);
    checkb "delete hi" true (D.delete h hi);
    D.check t

  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> `Insert (k, v)) (int_bound 40) (int_bound 1000));
          (3, map (fun k -> `Delete k) (int_bound 40));
          (3, map (fun k -> `Contains k) (int_bound 40));
        ])

  let arb_ops =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Insert (k, v) -> Printf.sprintf "I(%d,%d)" k v
               | `Delete k -> Printf.sprintf "D(%d)" k
               | `Contains k -> Printf.sprintf "C(%d)" k)
             ops))
      QCheck.Gen.(list_size (int_range 0 300) gen_op)

  let prop_map_equivalence =
    QCheck.Test.make
      ~name:(D.name ^ " matches stdlib Map")
      ~count:150 arb_ops
      (fun ops ->
        with_dict @@ fun t h ->
        let step (map, ok) op =
          match op with
          | `Insert (k, v) ->
              let expected = not (IntMap.mem k map) in
              let got = D.insert h k v in
              ( (if expected then IntMap.add k v map else map),
                ok && expected = got )
          | `Delete k ->
              let expected = IntMap.mem k map in
              (IntMap.remove k map, ok && expected = D.delete h k)
          | `Contains k ->
              (map, ok && IntMap.find_opt k map = D.contains h k)
        in
        let map, ok = List.fold_left step (IntMap.empty, true) ops in
        D.check t;
        ok
        && D.to_list t = IntMap.bindings map
        && D.size t = IntMap.cardinal map)

  let test_concurrent_partitions () =
    let t = D.create () in
    let n_domains = 4 in
    let keys_per = 250 in
    let bar = Barrier.create n_domains in
    let worker i () =
      let h = D.register t in
      let base = i * keys_per in
      Barrier.wait bar;
      for k = base to base + keys_per - 1 do
        assert (D.insert h k (k * 7))
      done;
      for k = base to base + keys_per - 1 do
        if k mod 3 = 0 then assert (D.delete h k)
      done;
      for k = base to base + keys_per - 1 do
        let expected = if k mod 3 = 0 then None else Some (k * 7) in
        assert (D.contains h k = expected)
      done;
      D.unregister h
    in
    let domains = List.init n_domains (fun i -> Domain.spawn (worker i)) in
    List.iter Domain.join domains;
    D.check t;
    let expected_total =
      n_domains * keys_per
      - List.length
          (List.filter
             (fun k -> k mod 3 = 0)
             (List.init (n_domains * keys_per) Fun.id))
    in
    checki "exact survivors" expected_total (D.size t)

  let test_concurrent_stress () =
    let t = D.create () in
    let n_domains = 4 in
    let ops = 4_000 in
    let key_range = 128 in
    let bar = Barrier.create n_domains in
    let worker i () =
      let h = D.register t in
      let rng = Rng.create (Int64.of_int (31 + (17 * i))) in
      Barrier.wait bar;
      for _ = 1 to ops do
        let k = Rng.int rng key_range in
        match Rng.int rng 10 with
        | 0 | 1 | 2 -> ignore (D.insert h k k)
        | 3 | 4 | 5 -> ignore (D.delete h k)
        | _ -> ignore (D.contains h k)
      done;
      D.unregister h
    in
    let domains = List.init n_domains (fun i -> Domain.spawn (worker i)) in
    List.iter Domain.join domains;
    D.check t;
    checkb "size in range" true (D.size t <= key_range);
    (* The final contents must be self-consistent: to_list sorted and
       deduplicated, matching size. *)
    let l = D.to_list t in
    checki "to_list matches size" (D.size t) (List.length l);
    let keys = List.map fst l in
    checkb "keys strictly sorted (no duplicates)" true
      (List.sort_uniq compare keys = keys)

  (* Single-key conservation: with all traffic on one key, the successful
     inserts and deletes must interleave strictly (diff ∈ {0,1} and final
     presence = diff). This is the test that caught a descriptor-ABA bug
     in the Ellen BST port — keep it hot. *)
  let test_single_key_conservation () =
    for trial = 1 to 60 do
      let t = D.create () in
      let ins = Atomic.make 0 and del = Atomic.make 0 in
      let workers =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                let h = D.register t in
                let rng = Rng.create (Int64.of_int ((trial * 10) + i)) in
                for _ = 1 to 30 do
                  if Rng.bool rng then begin
                    if D.insert h 7 7 then Atomic.incr ins
                  end
                  else if D.delete h 7 then Atomic.incr del
                done;
                D.unregister h))
      in
      List.iter Domain.join workers;
      let diff = Atomic.get ins - Atomic.get del in
      let h = D.register t in
      let present = D.mem h 7 in
      D.unregister h;
      if diff < 0 || diff > 1 || present <> (diff = 1) then
        Alcotest.failf "trial %d: ins=%d del=%d present=%b" trial
          (Atomic.get ins) (Atomic.get del) present;
      D.check t
    done

  (* Handles are registered and released continuously while other domains
     operate: exercises RCU slot reuse under load. *)
  let test_handle_churn () =
    let t = D.create ~max_threads:16 () in
    let stop = Atomic.make false in
    let churners =
      List.init 2 (fun i ->
          Domain.spawn (fun () ->
              let rng = Rng.create (Int64.of_int (50 + i)) in
              while not (Atomic.get stop) do
                let h = D.register t in
                for _ = 1 to 20 do
                  let k = Rng.int rng 64 in
                  if Rng.bool rng then ignore (D.insert h k k)
                  else ignore (D.mem h k)
                done;
                D.unregister h
              done))
    in
    let worker =
      Domain.spawn (fun () ->
          let h = D.register t in
          let rng = Rng.create 99L in
          for _ = 1 to 10_000 do
            let k = Rng.int rng 64 in
            match Rng.int rng 3 with
            | 0 -> ignore (D.insert h k k)
            | 1 -> ignore (D.delete h k)
            | _ -> ignore (D.contains h k)
          done;
          D.unregister h)
    in
    Domain.join worker;
    Atomic.set stop true;
    List.iter Domain.join churners;
    D.check t

  (* Readers run concurrently with a writer churning the whole key space;
     they must always see self-consistent values (value = 13 * key). *)
  let test_readers_vs_writer () =
    let t = D.create () in
    let setup = D.register t in
    for k = 0 to 63 do
      ignore (D.insert setup k (k * 13))
    done;
    let stop = Atomic.make false in
    let anomalies = Atomic.make 0 in
    let readers =
      List.init 2 (fun i ->
          Domain.spawn (fun () ->
              let h = D.register t in
              let rng = Rng.create (Int64.of_int (400 + i)) in
              while not (Atomic.get stop) do
                let k = Rng.int rng 64 in
                match D.contains h k with
                | Some v when v <> k * 13 -> Atomic.incr anomalies
                | Some _ | None -> ()
              done;
              D.unregister h))
    in
    let writer =
      Domain.spawn (fun () ->
          let h = D.register t in
          let rng = Rng.create 4242L in
          for _ = 1 to 3_000 do
            let k = Rng.int rng 64 in
            if Rng.bool rng then ignore (D.delete h k)
            else ignore (D.insert h k (k * 13))
          done;
          D.unregister h)
    in
    Domain.join writer;
    Atomic.set stop true;
    List.iter Domain.join readers;
    checki "no torn values" 0 (Atomic.get anomalies);
    D.check t;
    D.unregister setup

  let suite =
    ( D.name,
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "basic lifecycle" `Quick test_basic_lifecycle;
        Alcotest.test_case "ascending/descending" `Quick
          test_ascending_descending;
        Alcotest.test_case "boundary keys" `Quick test_boundary_keys;
        QCheck_alcotest.to_alcotest prop_map_equivalence;
        Alcotest.test_case "concurrent partitions" `Quick
          test_concurrent_partitions;
        Alcotest.test_case "concurrent stress" `Quick test_concurrent_stress;
        Alcotest.test_case "single-key conservation" `Quick
          test_single_key_conservation;
        Alcotest.test_case "handle churn" `Quick test_handle_churn;
        Alcotest.test_case "readers vs writer" `Quick test_readers_vs_writer;
      ] )
end

let suites =
  List.map
    (fun (module D : Repro_dict.Dict.DICT) ->
      let module C = Conformance (D) in
      C.suite)
    Repro_dict.Dict.all

(* Allocation table: minor words per [contains] and per insert+delete
   cycle for every structure in [Dict.all], on the default configuration
   (sanitizer and lockdep disarmed, whatever the environment armed). The
   key set is 4096 random even inserts over 2048 keys, then 16384
   lookups of hits and misses; the cycles insert and delete odd keys
   above that range. Each bound is the structure's measured value
   rounded up (0.1 word per contains, 1 word per cycle; skiplist towers
   and cf-tree maintenance vary a little between windows, so theirs sit
   above the measured maximum). An allocation regression anywhere, or a
   structure without a row, fails deterministically. *)
let allocation_bounds =
  (* structure, contains words/op, insert+delete cycle words *)
  [
    ("citrus", 0.0, 28.);
    ("citrus-urcu", 0.0, 28.);
    ("citrus-qsbr", 0.0, 28.);
    ("cf-tree", 0.0, 14.);
    ("skiplist", 1.0, 176.);
    ("lock-free", 4.0, 88.);
    ("bonsai", 5.0, 147.);
    ("rcu-hash", 5.0, 31.);
    ("coarse", 7.0, 90.);
    ("lazy-list", 10.0, 60.);
    ("red-black", 28.0, 55.);
    ("ellen", 43.1, 153.);
    ("avl", 101.0, 268.);
  ]

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let allocation_row (module D : Repro_dict.Dict.DICT) =
  let t = D.create () in
  let h = D.register t in
  let n = 1024 and calls = 16_384 and cycles = 10_000 in
  let rng = Rng.create 7L in
  for _ = 1 to 4 * n do
    let k = 2 * Rng.int rng n in
    ignore (D.insert h k k)
  done;
  let keys = Array.init calls (fun i -> (i * 7919) land ((2 * n) - 1)) in
  let lookup k = ignore (D.contains h k) in
  let contains =
    minor_words_of (fun () -> Array.iter lookup keys) /. float_of_int calls
  in
  let cycle =
    minor_words_of (fun () ->
        for i = 1 to cycles do
          let k = (2 * n) + 1 + (2 * (i land 63)) in
          ignore (D.insert h k k);
          ignore (D.delete h k)
        done)
    /. float_of_int cycles
  in
  D.unregister h;
  D.shutdown t;
  (contains, cycle)

let test_allocation_table () =
  Repro_fault.Arm.(without (sanitizer lor lockdep)) @@ fun () ->
  let failures =
    List.filter_map
      (fun (module D : Repro_dict.Dict.DICT) ->
        let contains, cycle = allocation_row (module D) in
        match
          List.find_opt (fun (name, _, _) -> name = D.name) allocation_bounds
        with
        | None ->
            Some
              (Printf.sprintf "%s: no row (contains %.2f, cycle %.1f)" D.name
                 contains cycle)
        | Some (_, max_contains, max_cycle)
          when contains > max_contains || cycle > max_cycle ->
            Some
              (Printf.sprintf
                 "%s: contains %.2f words/op (bound %.1f), cycle %.1f words \
                  (bound %.0f)"
                 D.name contains max_contains cycle max_cycle)
        | Some _ -> None)
      Repro_dict.Dict.all
  in
  if failures <> [] then Alcotest.fail (String.concat "\n" failures)

let test_find () =
  let module D = (val Repro_dict.Dict.find "citrus") in
  Alcotest.check Alcotest.string "lookup by name" "citrus" D.name;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Repro_dict.Dict.find "nope"))

let () =
  Alcotest.run "dict"
    (suites
    @ [
        ( "registry",
          [
            Alcotest.test_case "find by name" `Quick test_find;
            Alcotest.test_case "allocation table" `Quick test_allocation_table;
            Alcotest.test_case "paper set has six" `Quick (fun () ->
                Alcotest.check Alcotest.int "six structures" 6
                  (List.length Repro_dict.Dict.paper_set));
          ] );
      ])
