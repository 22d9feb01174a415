(** The three point-to-point calls [perfbench/suite.ml] prices netsim
    through, as a pass-through over {!Network}: ranks are network nodes.
    No library, command or example calls this module.  It exists only
    for that benchmark, and goes once the benchmark's netsim pricing
    calls {!Network} directly. *)

type 'a t = 'a Network.t

val create : Simcore.Engine.t -> Profile.t -> ranks:int -> 'a t
(** [Network.create ~nodes:ranks]. *)

val isend : 'a t -> src:int -> dst:int -> size:int -> 'a -> unit
(** {!Network.isend}. *)

val recv : 'a t -> rank:int -> unit -> 'a
(** The payload of {!Network.recv} at [rank]. *)
