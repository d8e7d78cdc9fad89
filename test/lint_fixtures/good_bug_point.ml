(* Clean (rule 8): a seeded bug as a bug.* fault point at its site,
   switched on by arming the point, not by a flag or a parameter. *)
module Fault = Repro_fault.Fault

let bug_skip = Fault.register "bug.fixture.skip"

let create ?(checked = true) () =
  checked && not (Fault.enabled () && Fault.fires bug_skip)
