val time_all : (unit -> unit) -> int -> int64
