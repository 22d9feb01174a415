let run (sc : Workload.Scenario.t) ?(routers = 2) ?faults ~variant ~keys
    ~queries () =
  let o =
    Method_c.drive ~faults sc ~source:Method_c.Batch ~ops:Method_c.Queries
      ~topology:(Method_c.Routers routers) ~variant ~keys ~queries
  in
  { o.Method_c.run with
    Run_result.scenario = sc.Workload.Scenario.name ^ "+hier" }
