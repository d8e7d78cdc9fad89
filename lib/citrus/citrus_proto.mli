(** Pure fragments of the Citrus algorithm shared with the model checker
    (lib/modelcheck): the child directions and the search direction, as
    total functions on plain values. *)

val left : int
val right : int

val dir_of_cmp : int -> int
(** Direction from a three-way comparison of node key vs search key:
    positive (node key greater) -> {!left}, otherwise {!right}. *)
