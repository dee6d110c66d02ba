(** Intrusive-style doubly linked lists with O(1) removal by node handle.

    Used for scheduler run queues and FIFO wait queues, where a thread must
    be unlinkable from the middle of the queue (e.g. when it is preemptively
    migrated while waiting). *)

type 'a t

type 'a node

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

(** Value carried by a node. *)
val value : 'a node -> 'a

(** Append at the tail; returns the handle for O(1) removal. *)
val push_back : 'a t -> 'a -> 'a node

(** Prepend at the head. *)
val push_front : 'a t -> 'a -> 'a node

(** Remove and return the head value. @raise Invalid_argument if empty. *)
val pop_front : 'a t -> 'a

(** Head value without removal, or [None]. *)
val peek_front : 'a t -> 'a option

(** [remove t n] unlinks node [n] from [t]. Safe to call once per node;
    @raise Invalid_argument if the node was already removed. *)
val remove : 'a t -> 'a node -> unit

(** [remove_if p t] unlinks every value satisfying [p] in one pass from
    the head; the others keep their order. [p] sees each value once. *)
val remove_if : ('a -> bool) -> 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
val exists : ('a -> bool) -> 'a t -> bool
