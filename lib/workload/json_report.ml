module Json = Repro_obs.Json

let schema_version = 1

let op_name = function
  | Workload.Contains -> "contains"
  | Workload.Insert -> "insert"
  | Workload.Delete -> "delete"

let mix_json (m : Workload.mix) =
  Json.Obj
    [
      ("contains_pct", Json.Int m.contains_pct);
      ("insert_pct", Json.Int m.insert_pct);
      ("delete_pct", Json.Int m.delete_pct);
    ]

let config_json (cfg : Workload.config) =
  let role_fields =
    match cfg.role with
    | Workload.Uniform m -> [ ("role", Json.String "uniform"); ("mix", mix_json m) ]
    | Workload.Single_writer m ->
        [ ("role", Json.String "single_writer"); ("writer_mix", mix_json m) ]
  in
  let dist_fields =
    match cfg.key_dist with
    | Workload.Uniform_keys -> [ ("key_dist", Json.String "uniform") ]
    | Workload.Zipf theta ->
        [ ("key_dist", Json.String "zipf"); ("zipf_theta", Json.Float theta) ]
  in
  Json.Obj
    ([
       ("key_range", Json.Int cfg.key_range);
       ("threads", Json.Int cfg.threads);
       ("duration_s", Json.Float cfg.duration);
       ("prefill_fraction", Json.Float cfg.prefill_fraction);
       ("seed", Json.Int (Int64.to_int cfg.seed));
     ]
    @ role_fields @ dist_fields)

let summary_json (s : Latency.summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean_ns", Json.Float s.mean_ns);
      ("p50_ns", Json.Float s.p50);
      ("p90_ns", Json.Float s.p90);
      ("p99_ns", Json.Float s.p99);
      ("p999_ns", Json.Float s.p999);
      ("max_ns", Json.Float s.max_ns);
    ]

let point_json cfg (r : Runner.result) =
  Json.Obj
    [
      ("structure", Json.String r.Runner.name);
      ("threads", Json.Int r.Runner.threads);
      ("config", config_json cfg);
      ("throughput_ops_per_s", Json.Float r.Runner.throughput);
      ("wall_s", Json.Float r.Runner.wall);
      ( "ops",
        Json.Obj
          [
            ("total", Json.Int r.Runner.total_ops);
            ("contains", Json.Int r.Runner.contains_ops);
            ("insert", Json.Int r.Runner.insert_ops);
            ("delete", Json.Int r.Runner.delete_ops);
          ] );
      ("final_size", Json.Int r.Runner.final_size);
      ( "latency_ns",
        Json.Obj
          (List.map
             (fun (op, h) -> (op_name op, summary_json (Latency.summarize h)))
             r.Runner.latency) );
      ("metrics", Repro_obs.Export.metrics_json r.Runner.metrics);
    ]

let report ?(meta = []) experiments =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("generator", Json.String "citrus-repro bench");
       ("generated_at_unix", Json.Float (Unix.gettimeofday ()));
     ]
    @ meta
    @ [
        ( "experiments",
          Json.List
            (List.map
               (fun (name, points) ->
                 Json.Obj
                   [ ("name", Json.String name); ("points", Json.List points) ])
               experiments) );
      ])

let write path json =
  match Repro_obs.Export.write_file path json with
  | () -> Format.printf "wrote JSON report: %s@." path
  | exception Sys_error msg ->
      Format.eprintf "cannot write JSON report: %s@." msg;
      exit 1
