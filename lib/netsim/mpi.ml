type 'a t = 'a Network.t

let create eng profile ~ranks = Network.create eng profile ~nodes:ranks
let isend t ~src ~dst ~size payload = Network.isend t ~src ~dst ~size payload
let recv t ~rank () = (Network.recv t ~dst:rank).Network.payload
