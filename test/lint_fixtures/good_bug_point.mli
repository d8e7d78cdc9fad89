val create : ?checked:bool -> unit -> bool
