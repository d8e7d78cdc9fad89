(* Pure fragments of the Citrus algorithm, shared between the real tree
   (citrus.ml) and the model checker's 2-reader/1-updater model
   (lib/modelcheck/models.ml) — the same reason Protocol exists for the
   RCU flavours: the model must traverse with the *same* child
   directions and search direction as the code it checks. *)

let left = 0
let right = 1

(* Search direction from a three-way comparison of node key vs search
   key (paper line 7): node key greater -> left, else right. *)
let dir_of_cmp cmp = if cmp > 0 then left else right
