let run ?faults sc ~method_id ~keys ~queries =
  match (method_id : Methods.id) with
  | Methods.A | Methods.B ->
      (Replicated.drive ~jobs:1 sc ~source:Method_c.Batch ~ops:Method_c.Queries
         ~method_id ~keys ~queries)
        .Method_c.run
  | Methods.C1 | Methods.C2 | Methods.C3 ->
      Method_c.run sc ?faults ~variant:method_id ~keys ~queries

let workload (sc : Workload.Scenario.t) =
  let g = Prng.Splitmix.create sc.Workload.Scenario.seed in
  let g_keys = Prng.Splitmix.split g in
  let g_queries = Prng.Splitmix.split g in
  let keys = Workload.Keygen.index_keys g_keys ~n:sc.Workload.Scenario.n_keys in
  let queries =
    Workload.Keygen.uniform_queries g_queries ~n:sc.Workload.Scenario.n_queries
  in
  (keys, queries)
