let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let map ?(jobs = 1) ~f xs = Pool.run ~jobs (List.map (fun x () -> f x) xs)

let run ?jobs js = map ?jobs ~f:(fun j -> (Job.key j, Job.run j)) js
