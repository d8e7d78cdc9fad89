(* BAD (rule 11): a debug layer's private on/off switch, and a metric
   recorded behind the deleted metrics switch — both second arming flags
   next to the one arming word. *)
let on = Atomic.make false
let enabled () = Atomic.get on
let count c = if Metrics.enabled () then Stats.incr c 0
