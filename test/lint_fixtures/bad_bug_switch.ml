(* BAD (rule 8): a per-module seeded-bug switch and a mutation knob on a
   constructor — a second mechanism beside the bug.* fault points. *)
let skip_bug = Atomic.make false

module Buggy = struct
  let skip b = Atomic.set skip_bug b
end

let create ?(mutate_skip = false) () = Atomic.get skip_bug || mutate_skip
