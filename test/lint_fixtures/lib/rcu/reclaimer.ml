(* Clean (rule 7): the reclaimer is the one file that drives a
   retirement's shadow lifecycle. *)
module San = Repro_sanitizer.Sanitizer

let call_rcu shadow ~wait free =
  San.on_defer shadow ~gp:0;
  wait ();
  San.on_reclaim shadow;
  free ()
