val enabled : unit -> bool
val count : Stats.t -> unit
