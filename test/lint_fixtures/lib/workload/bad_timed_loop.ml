(* BAD (rule 9): a second timed workload loop in the workload layer,
   reading the clock around each operation outside Runner. *)
let time_all f n =
  let t0 = Monotonic_clock.now () in
  for _ = 1 to n do
    f ()
  done;
  Int64.sub (Monotonic_clock.now ()) t0
