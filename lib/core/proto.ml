type t =
  | Data of int * int array
  | Reply of int * int array
  | Term

let data_tag = 0
let term_tag = 1
let reply_tag = 2
let query_op = 0
let insert_op = 1
let delete_op = 2
let op w = w / Index.Key.sentinel
let key w = w mod Index.Key.sentinel

let op_word queries = function
  | Workload.Mutation.Query qi -> queries.(qi)
  | Workload.Mutation.Insert k -> (insert_op * Index.Key.sentinel) + k
  | Workload.Mutation.Delete k -> (delete_op * Index.Key.sentinel) + k
