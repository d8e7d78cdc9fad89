val wait_slot :
  flavour:string ->
  slot:int ->
  t0:int ->
  threshold:int ->
  (unit -> bool) ->
  unit
