type series = { label : string; points : (int * float) list }

let si v =
  if v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let default_out = Format.std_formatter

let print_table ?(out = default_out) ~title ~threads series =
  let label_width =
    List.fold_left (fun w s -> max w (String.length s.label)) 10 series
  in
  let col_width = 9 in
  Format.fprintf out "@.== %s ==@." title;
  Format.fprintf out "%-*s" label_width "threads";
  List.iter (fun t -> Format.fprintf out " %*d" col_width t) threads;
  Format.fprintf out "@.";
  List.iter
    (fun s ->
      Format.fprintf out "%-*s" label_width s.label;
      List.iter
        (fun t ->
          match List.assoc_opt t s.points with
          | Some v -> Format.fprintf out " %*s" col_width (si v)
          | None -> Format.fprintf out " %*s" col_width "-")
        threads;
      Format.fprintf out "@.")
    series;
  Format.pp_print_flush out ()

let print_result ?(out = default_out) (r : Runner.result) =
  Format.fprintf out
    "  %-12s t=%-3d %8s ops/s (c=%d i=%d d=%d, wall %.2fs, size %d)@."
    r.name r.threads (si r.throughput) r.contains_ops r.insert_ops
    r.delete_ops r.wall r.final_size;
  Format.pp_print_flush out ()
