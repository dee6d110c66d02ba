type addr = int

let page_size = 4096
let page_shift = 12

(* Fig. 5 of the paper: code and data fixed at compile time, then the local
   heap, then the 3.5 GB iso-address area, then the process stack. *)
let code_base = 0x0000_1000
let code_size = 4 * 1024 * 1024

let data_base = 0x0040_0000
let data_size = 4 * 1024 * 1024

let heap_base = 0x0080_0000
let heap_max_size = 256 * 1024 * 1024

let iso_base = 0x2000_0000
let iso_size = 3584 * 1024 * 1024 (* 3.5 GB = 57344 slots of 64 KB *)

let stack_base = iso_base + iso_size + (16 * 1024 * 1024)
let stack_size = 8 * 1024 * 1024

let page_of_addr a = a lsr page_shift
let addr_of_page p = p lsl page_shift
let page_align_down a = a land lnot (page_size - 1)
let page_align_up a = (a + page_size - 1) land lnot (page_size - 1)
let is_page_aligned a = a land (page_size - 1) = 0

let in_iso_area a = a >= iso_base && a < iso_base + iso_size
let in_heap a = a >= heap_base && a < heap_base + heap_max_size
