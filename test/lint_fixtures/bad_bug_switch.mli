module Buggy : sig
  val skip : bool -> unit
end

val create : ?mutate_skip:bool -> unit -> bool
