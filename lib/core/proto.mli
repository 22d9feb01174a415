(** Wire protocol shared by the Method C family.

    Batches are self-identifying: [Data] and [Reply] carry a batch id so
    collectors can match a slave's reply — slaves serve several upstream
    dispatchers in arrival order — with the host-side record of which
    queries the batch contained. *)

type t =
  | Data of int * int array
      (** Batch id and op words (dispatcher to slave or router). *)
  | Reply of int * int array
      (** Batch id and partition-local ranks (slave to target). *)
  | Term  (** End of stream. *)

val data_tag : int
val reply_tag : int
val term_tag : int

(** {2 Op words}

    A [Data] batch carries one word per op, [op * Key.sentinel + key]:
    op 0 is a query (so a plain key is its own query word), 1 an insert
    and 2 a delete.  Updates thus ride the query staging buffers and
    batch transfers unchanged. *)

val query_op : int
val insert_op : int
val delete_op : int

val op : int -> int
(** The op of a word: {!query_op}, {!insert_op} or {!delete_op}. *)

val key : int -> int

val op_word : int array -> Workload.Mutation.op -> int
(** [op_word queries op] encodes one stream op; [Query qi] becomes the
    key [queries.(qi)]. *)
