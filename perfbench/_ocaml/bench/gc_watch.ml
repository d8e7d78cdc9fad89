(* GC pauses read from the runtime's own event rings ([Runtime_events]),
   polled by a systhread of the main domain while it sleeps in the runner.
   Started only for traced segments: the rings cost a store per runtime
   phase. A pause is one EV_MINOR or EV_MAJOR_SLICE phase on one domain,
   from its begin event to its end event. *)

module RE = Runtime_events

let max_rings = 128
let minor_begin = Array.make max_rings (-1)
let major_begin = Array.make max_rings (-1)
let pauses = ref (Hist.create ())
let lost = ref 0
let cursor = ref None
let ts t = Int64.to_int (RE.Timestamp.to_int64 t)

let on_begin ring t = function
  | RE.EV_MINOR -> minor_begin.(ring) <- ts t
  | RE.EV_MAJOR_SLICE -> major_begin.(ring) <- ts t
  | _ -> ()

let close starts ring t =
  let b = starts.(ring) in
  if b >= 0 then begin
    Hist.record !pauses (ts t - b);
    starts.(ring) <- -1
  end

let on_end ring t = function
  | RE.EV_MINOR -> close minor_begin ring t
  | RE.EV_MAJOR_SLICE -> close major_begin ring t
  | _ -> ()

let callbacks =
  RE.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let poll c = ignore (RE.read_poll c callbacks None)

type watch = { stop : bool Atomic.t; poller : Thread.t; c : RE.cursor }

(* Begin collecting; events from before the call are discarded. *)
let start () =
  let c =
    match !cursor with
    | Some c ->
        RE.resume ();
        c
    | None ->
        RE.start ();
        let c = RE.create_cursor None in
        cursor := Some c;
        c
  in
  poll c;
  pauses := Hist.create ();
  lost := 0;
  Array.fill minor_begin 0 max_rings (-1);
  Array.fill major_begin 0 max_rings (-1);
  let stop = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          poll c;
          Thread.delay 0.002
        done)
      ()
  in
  { stop; poller; c }

(* Stop collecting; returns the pauses seen and the count of events the
   rings overwrote before they were read. *)
let stop s =
  Atomic.set s.stop true;
  Thread.join s.poller;
  poll s.c;
  RE.pause ();
  (!pauses, !lost)
