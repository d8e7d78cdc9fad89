(* BAD (rule 10): a second reader-wait loop in a flavour, naming its own
   stalls instead of waiting through the grace-period driver. *)
let wait_slot ~flavour ~slot ~t0 ~threshold blocks =
  let deadline = ref (t0 + threshold) in
  while blocks () do
    Domain.cpu_relax ();
    let now = Repro_sync.Metrics.now_ns () in
    if now > !deadline then begin
      Stall.note
        (Stall.report ~flavour ~slot ~nesting:1 ~phase:0
           ~elapsed_ns:(now - t0) ~grace_periods:0);
      deadline := now + threshold
    end
  done
