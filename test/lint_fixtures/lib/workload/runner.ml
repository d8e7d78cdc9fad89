(* Clean (rule 9): the runner owns the closed-loop timed loop. *)
let time f =
  let t0 = Monotonic_clock.now () in
  f ();
  Int64.sub (Monotonic_clock.now ()) t0
