type 'a t = {
  payloads : 'a array;
  in_use : bool Atomic.t array;
}

exception Full

let create ~capacity ~make =
  if capacity <= 0 then invalid_arg "Registry.create: capacity must be positive";
  {
    payloads = Array.init capacity make;
    (* Spaced allocation: the RCU flavours already pad their slot
       *payloads*, but these flags sit in one dense array right next to
       each other — [acquire]/[release] CASes on one slot would
       otherwise invalidate the line under every reader's flag on
       registration churn (the false-sharing audit, ROADMAP item 5). *)
    in_use = Padding.spaced_atomics capacity false;
  }

let acquire t =
  let n = Array.length t.in_use in
  let rec scan i =
    if i >= n then raise Full
    else if
      (not (Atomic.get t.in_use.(i)))
      && Atomic.compare_and_set t.in_use.(i) false true
    then i
    else scan (i + 1)
  in
  scan 0

let release t i =
  if not (Atomic.exchange t.in_use.(i) false) then
    invalid_arg "Registry.release: slot was not held"

let get t i = t.payloads.(i)
let capacity t = Array.length t.payloads

let active t =
  Array.fold_left (fun acc a -> if Atomic.get a then acc + 1 else acc) 0 t.in_use
