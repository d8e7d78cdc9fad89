val call_rcu :
  Repro_sanitizer.Sanitizer.record -> wait:(unit -> unit) -> (unit -> unit) ->
  unit
