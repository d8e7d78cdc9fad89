(* BAD (rule 7): a hand-rolled retire path driving the sanitizer's
   shadow lifecycle outside the reclaimer. *)
module San = Repro_sanitizer.Sanitizer

let retire shadow ~wait free =
  San.on_defer shadow ~gp:0;
  wait ();
  San.on_reclaim shadow;
  free ()
