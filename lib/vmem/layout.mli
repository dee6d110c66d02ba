(** The system-wide virtual memory layout (paper, Fig. 5).

    Every node of a PM2 configuration is binary compatible and runs the same
    executable, so the layout is identical everywhere: code and static data
    at fixed addresses, a local heap, the iso-address area between heap and
    process stack, and the (unique) process stack at a fixed address.

    Addresses are plain [int]s (63-bit, plenty for a 32-bit-era layout). *)

type addr = int

val page_size : int
(** 4096 bytes, as on the paper's Linux 2.0 / PentiumPro nodes. *)

val page_shift : int

(** {1 Segment bases and sizes} *)

val code_base : addr
val code_size : int

val data_base : addr
val data_size : int

val heap_base : addr
(** Base of the node-local heap (classic [malloc] arena; does {e not}
    migrate). *)

val heap_max_size : int

val iso_base : addr
(** Base of the iso-address area: same virtual range on all nodes. *)

val iso_size : int
(** 3.5 GB, as in the paper (§4.2). *)

val stack_base : addr
(** Base of the (unique) process stack region. *)

val stack_size : int

(** {1 Helpers} *)

val page_of_addr : addr -> int
val addr_of_page : int -> addr
val page_align_down : addr -> addr
val page_align_up : addr -> addr
val is_page_aligned : addr -> bool

val in_iso_area : addr -> bool
val in_heap : addr -> bool
