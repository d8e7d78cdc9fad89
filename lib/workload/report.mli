(** Table rendering for benchmark output: one row per dictionary, one column
    per thread count — the textual equivalent of the paper's figures. *)

type series = { label : string; points : (int * float) list }
(** [points] maps thread count to throughput (ops/second). *)

val si : float -> string
(** Human SI formatting: [si 1.25e6 = "1.25M"]. *)

val print_table :
  ?out:Format.formatter -> title:string -> threads:int list -> series list -> unit
(** Render an aligned table; missing points print as "-". *)

val print_result : ?out:Format.formatter -> Runner.result -> unit
(** One-line summary of a single run (used in verbose mode). *)
