(* Word-level bitset. The store is padded to a whole number of 64-bit
   words (read little-endian, so bit [i] still lives in byte [i/8] at
   position [i mod 8], exactly as in the original byte-level layout);
   [byte_size] keeps reporting the logical (bits+7)/8 size that the
   charge accounting is based on. Invariant: the padding bits above
   [bits] in the last word are always zero — every mutation is
   bounds-checked or masked — which lets [count], [equal] and the word
   scans run over whole words without a tail special case. *)

type t = {
  bits : int;
  store : Bytes.t;
}

let words_for bits = (bits + 63) lsr 6

let create bits =
  if bits < 0 then invalid_arg "Bitset.create";
  { bits; store = Bytes.make (words_for bits * 8) '\000' }

let length t = t.bits

let byte_size t = (t.bits + 7) lsr 3

let word_count t = Bytes.length t.store lsr 3

(* Word [k], little-endian, for [0 <= k < word_count t]. The accessors
   are inlined so that every caller keeps the [int64] unboxed: none of
   the scans below allocates. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_word t k =
  let w = get64u t.store (k lsl 3) in
  if Sys.big_endian then bswap64 w else w

let[@inline] set_word t k v =
  set64u t.store (k lsl 3) (if Sys.big_endian then bswap64 v else v)

let init_words bits f =
  if bits < 0 then invalid_arg "Bitset.init_words";
  let t = { bits; store = Bytes.create (words_for bits * 8) } in
  let nwords = word_count t in
  for k = 0 to nwords - 1 do
    set_word t k (f k)
  done;
  (* Keep the padding above [bits] clear. *)
  if bits land 63 <> 0 then
    set_word t (nwords - 1)
      (Int64.logand (get_word t (nwords - 1))
         (Int64.pred (Int64.shift_left 1L (bits land 63))));
  t

let check t i =
  if i < 0 || i >= t.bits then invalid_arg "Bitset: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.store (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.store b
    (Char.chr (Char.code (Bytes.unsafe_get t.store b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.store b
    (Char.chr (Char.code (Bytes.unsafe_get t.store b) land lnot (1 lsl (i land 7)) land 0xff))

let assign t i v = if v then set t i else clear t i

(* A 64-bit word does not fit OCaml's 63-bit [int], so the bit tricks
   work on its two 32-bit halves as native ints, which are never boxed.
   [lo32 w] holds bits 0..31 of the word, [hi32 w] bits 32..63. *)
let mask32 = 0xFFFF_FFFF

let[@inline] lo32 w = Int64.to_int w land mask32

let[@inline] hi32 w = Int64.to_int (Int64.shift_right_logical w 32)

(* SWAR popcount of a 32-bit value (Hacker's Delight 5-2). *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  ((x * 0x0101_0101) lsr 24) land 0xFF

(* Trailing zeros of a non-zero 32-bit value. *)
let ntz32 x = popcount32 ((x land -x) - 1)

(* Lowest set bit of a non-zero word. *)
let[@inline] ntz64 w =
  let lo = lo32 w in
  if lo <> 0 then ntz32 lo else 32 + ntz32 (hi32 w)

(* Trailing ones of a 32-bit value: [x + 1] clears them and sets the
   next bit up, so only they survive the mask. *)
let trailing_ones32 x = popcount32 (x land lnot (x + 1))

(* Leading ones of a 32-bit value: smear the highest clear bit
   downwards; what is left above it is the run of ones at the top. *)
let leading_ones32 x =
  let y = lnot x land mask32 in
  let y = y lor (y lsr 1) in
  let y = y lor (y lsr 2) in
  let y = y lor (y lsr 4) in
  let y = y lor (y lsr 8) in
  let y = y lor (y lsr 16) in
  32 - popcount32 y

let count t =
  let n = ref 0 in
  for k = 0 to word_count t - 1 do
    let w = get_word t k in
    n := !n + popcount32 (lo32 w) + popcount32 (hi32 w)
  done;
  !n

let next_set_from t start =
  let start = if start < 0 then 0 else start in
  if start >= t.bits then -1
  else begin
    let nwords = word_count t in
    let k = ref (start lsr 6) and found = ref (-1) in
    let w = Int64.logand (get_word t !k) (Int64.shift_left (-1L) (start land 63)) in
    if w <> 0L then found := (!k lsl 6) + ntz64 w;
    while !found < 0 && !k + 1 < nwords do
      incr k;
      let w = get_word t !k in
      if w <> 0L then found := (!k lsl 6) + ntz64 w
    done;
    !found
  end

let first_set_from t start =
  match next_set_from t start with
  | -1 -> None
  | i -> Some i

let first_set t = first_set_from t 0

(* Bits of the 32-bit value [x] at which [n] consecutive set bits start
   inside [x], by doubling shift-ANDs: while bit [i] of [m] says "bits
   [i .. i+k-1] are set", [m land (m lsr s)] says the same for [k + s]
   when [s <= k]. Runs that cross the top of [x] are not reported. *)
let run_starts32 x n =
  let m = ref x and k = ref 1 in
  while !k < n && !m <> 0 do
    let s = if !k <= n - !k then !k else n - !k in
    m := !m land (!m lsr s);
    k := !k + s
  done;
  !m

(* One 32-bit chunk [x] at bit [base] of the search for [n] set bits,
   entered with [carry] set bits ending just below [base]. Returns the
   new carry (>= 0), or [-1 - start] once the lowest adequate run,
   starting at [start], is known. A carried run starts below anything in
   [x], and a run found inside [x] starts below the run at its top, so
   checking in that order keeps the result first-fit. *)
let scan_chunk x ~base ~n ~carry =
  if x = 0 then 0
  else if x = mask32 then
    if carry + 32 >= n then -1 - (base - carry) else carry + 32
  else if carry > 0 && carry + trailing_ones32 x >= n then -1 - (base - carry)
  else begin
    let m = if n <= 32 then run_starts32 x n else 0 in
    if m <> 0 then -1 - (base + ntz32 m)
    else if x land 0x8000_0000 = 0 then 0
    else leading_ones32 x
  end

(* First-fit search for [n] set bits from word [k] on. [carry] is the
   length of the set run ending at the top of word [k - 1]. Under the
   round-robin slot distribution no node owns two adjacent slots, so for
   [n >= 2] almost every word has only isolated bits and is settled in
   O(1): it can at most extend the carried run by its bit 0 and start a
   new one-bit run at its bit 63. *)
let rec find_run_from t n ~nwords k carry =
  if k >= nwords then None
  else begin
    let w = get_word t k in
    if w = 0L then find_run_from t n ~nwords (k + 1) 0
    else if
      n >= 2
      && Int64.logand w (Int64.shift_right_logical w 1) = 0L
      && (carry + 1 < n || Int64.logand w 1L = 0L)
    then find_run_from t n ~nwords (k + 1) (Int64.to_int (Int64.shift_right_logical w 63))
    else begin
      let base = k lsl 6 in
      let r = scan_chunk (lo32 w) ~base ~n ~carry in
      if r < 0 then Some (-1 - r)
      else begin
        let r = scan_chunk (hi32 w) ~base:(base + 32) ~n ~carry:r in
        if r < 0 then Some (-1 - r) else find_run_from t n ~nwords (k + 1) r
      end
    end
  end

let find_run t n =
  if n <= 0 then invalid_arg "Bitset.find_run";
  find_run_from t n ~nwords:(word_count t) 0 0

let[@inline] range_mask ~lo ~hi =
  Int64.logand (Int64.shift_left (-1L) lo) (Int64.shift_right_logical (-1L) (63 - hi))

let range_op t i n ~value =
  if n > 0 then begin
    check t i;
    check t (i + n - 1);
    let hi = i + n - 1 in
    let k0 = i lsr 6 and k1 = hi lsr 6 in
    for k = k0 to k1 do
      let lo_bit = if k = k0 then i land 63 else 0 in
      let hi_bit = if k = k1 then hi land 63 else 63 in
      let mask = range_mask ~lo:lo_bit ~hi:hi_bit in
      let w = get_word t k in
      set_word t k
        (if value then Int64.logor w mask else Int64.logand w (Int64.lognot mask))
    done
  end

let set_range t i n = range_op t i n ~value:true

let clear_range t i n = range_op t i n ~value:false

let or_into ~into src =
  if into.bits <> src.bits then invalid_arg "Bitset.or_into: length mismatch";
  for k = 0 to word_count into - 1 do
    let s = get_word src k in
    if s <> 0L then set_word into k (Int64.logor (get_word into k) s)
  done

let copy_into ~into src =
  if into.bits <> src.bits then invalid_arg "Bitset.copy_into: length mismatch";
  Bytes.blit src.store 0 into.store 0 (Bytes.length src.store)

let extend t bits =
  if bits < t.bits then invalid_arg "Bitset.extend";
  let u = create bits in
  Bytes.blit t.store 0 u.store 0 (Bytes.length t.store);
  u

let equal a b = a.bits = b.bits && Bytes.equal a.store b.store

(* Calls [f] on the set bits of the 32-bit value [x] at bit [base]. *)
let iter_chunk f x base =
  let x = ref x in
  while !x <> 0 do
    f (base + ntz32 !x);
    x := !x land (!x - 1)
  done

let iter_set f t =
  for k = 0 to word_count t - 1 do
    let w = get_word t k in
    if w <> 0L then begin
      iter_chunk f (lo32 w) (k lsl 6);
      iter_chunk f (hi32 w) ((k lsl 6) + 32)
    end
  done

let intersects a b =
  if a.bits <> b.bits then invalid_arg "Bitset.intersects: length mismatch";
  let nwords = word_count a in
  let k = ref 0 and hit = ref false in
  while (not !hit) && !k < nwords do
    hit := Int64.logand (get_word a !k) (get_word b !k) <> 0L;
    incr k
  done;
  !hit

let to_string t = String.init t.bits (fun i -> if get t i then '1' else '0')

let pp ppf t = Format.pp_print_string ppf (to_string t)
