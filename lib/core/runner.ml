let drive ?faults ?topology sc ~source ~ops ~method_id ~keys ~queries =
  match (method_id : Methods.id) with
  | Methods.A | Methods.B -> (
      match topology with
      | Some (Method_c.Routers _) ->
          invalid_arg "Runner: methods A and B have no router tier"
      | Some Method_c.Flat | None ->
          Replicated.drive sc ~source ~ops ~method_id ~keys ~queries)
  | Methods.C1 | Methods.C2 | Methods.C3 ->
      Method_c.drive ~faults sc ~source ~ops
        ~topology:(Option.value topology ~default:Method_c.Flat)
        ~variant:method_id ~keys ~queries

let run ?faults ?routers sc ~method_id ~keys ~queries =
  let topology = Option.map (fun r -> Method_c.Routers r) routers in
  let r =
    drive ?faults ?topology sc ~source:Method_c.Batch ~ops:Method_c.Queries
      ~method_id ~keys ~queries
  in
  match routers with
  | None -> r
  | Some _ ->
      { r with Run_result.scenario = sc.Workload.Scenario.name ^ "+hier" }

let workload (sc : Workload.Scenario.t) =
  let g = Prng.Splitmix.create sc.Workload.Scenario.seed in
  let g_keys = Prng.Splitmix.split g in
  let g_queries = Prng.Splitmix.split g in
  let keys = Workload.Keygen.index_keys g_keys ~n:sc.Workload.Scenario.n_keys in
  let queries =
    Workload.Keygen.uniform_queries g_queries ~n:sc.Workload.Scenario.n_queries
  in
  (keys, queries)
