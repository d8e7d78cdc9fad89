(* One bit per off-by-default debug layer, in one word: a hot site loads
   it once and tests bits in a register. It lives in the library with no
   repository dependencies because every layer it gates sits above it. *)

let lockdep = 1
let sanitizer = 2
let trace = 4
let fault = 8

let cell = Atomic.make 0

let word () = Atomic.get cell

let rec update f =
  let w = Atomic.get cell in
  if not (Atomic.compare_and_set cell w (f w)) then update f

let set bits = update (fun w -> w lor bits)
let clear bits = update (fun w -> w land lnot bits)

(* Put back only [bits], so a bit another writer changed meanwhile (say
   [Fault.set] on the fault bit) keeps its new state. *)
let around change bits f =
  let was = Atomic.get cell land bits in
  change bits;
  Fun.protect f ~finally:(fun () -> update (fun w -> w land lnot bits lor was))

let with_ bits f = around set bits f
let without bits f = around clear bits f

let () =
  let truthy var =
    match Sys.getenv_opt var with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false
  in
  if truthy "REPRO_LOCKDEP" then set lockdep;
  if truthy "REPRO_SANITIZE" then set sanitizer
