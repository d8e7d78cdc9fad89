val time : (unit -> unit) -> int64
