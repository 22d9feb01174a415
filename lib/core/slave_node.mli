(** The slave side of the Method C family: a cache-resident partition
    index plus the serving loop, shared by every variant of the
    {!Method_c} protocol (batch and serving, static and dynamic, flat
    and router-tier). *)

type t
(** A slave node laid out for serving: its partition index — CSB+ tree
    (C-1), buffered n-ary tree (C-2), sorted array (C-3), or, under
    update forwarding, a log-structured {!Index.Segments} partition for
    every variant — followed by its two receive buffers and its reply
    buffer, [batch_keys] words each.  The index is built once as a
    {!Machine.image} and loaded; a buffer holds host memory only for
    the pages a batch or reply writes. *)

val build : Methods.id -> Machine.t -> int array -> batch_keys:int -> t
(** Lay out the empty machine with the structure for the given
    sub-method over the slice of keys.  Raises [Invalid_argument] for
    methods [A]/[B]. *)

val build_segments :
  Machine.t ->
  int array ->
  policy:Index.Segments.policy ->
  batch_keys:int ->
  t
(** The same, with a log-structured partition over the slice, for update
    forwarding (every C variant serves its dynamic partition the same
    way). *)

val overflow_flushes : t -> int
(** Early buffer drains (C-2 only; 0 otherwise). *)

val segments : t -> Index.Segments.t option
(** The dynamic partition, for update accounting. *)

val spawn :
  Simcore.Engine.t ->
  Proto.t Netsim.Network.t ->
  t ->
  node:int ->
  terms_expected:int ->
  reply_dst:(src:int -> int) ->
  overhead_ns:float ->
  ?batch_profile:(int, (string * float) list) Hashtbl.t ->
  ?faults:Fault.Plan.t ->
  unit ->
  unit
(** Start the serving process on [node]: receive [Data] batches from any
    upstream dispatcher in arrival order, DMA them into a rotating pair
    of receive buffers, answer against the partition index, and ship the
    local ranks as a [Reply] (same batch id) to [reply_dst ~src] where
    [src] is the sender of the data batch.  A {!Index.Segments}
    partition decodes each {!Proto} op word: queries are answered in
    batch order, inserts and deletes mutate the partition in arrival
    order and add nothing to the reply.  The process exits after
    [terms_expected] [Term] messages.  Each message charges
    [overhead_ns] of CPU on receive and on reply.

    Cost attribution: message handling is charged under phase
    [batch_xfer], index lookups under [lookup], replies on the wire
    under [reply].  When [batch_profile] is given, each served batch's
    per-component cost breakdown (including ["cpu"]) is stored in it
    keyed by batch id, for the caller's tail-query inspector.

    When [faults] names this node in a [slow] clause, the surplus
    compute time is charged under phase [slow_node]; when it crashes
    the node, the serving loop stops at the first message handled at or
    after the crash instant (the network black-holes later traffic). *)
