open Pm2_util
open Pm2_support

let test_create_empty () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "length" 100 (Bitset.length b);
  Alcotest.(check int) "byte_size" 13 (Bitset.byte_size b);
  Alcotest.(check int) "count" 0 (Bitset.count b);
  Alcotest.(check (option int)) "first_set" None (Bitset.first_set b)

let test_set_get_clear () =
  let b = Bitset.create 64 in
  Bitset.set b 0;
  Bitset.set b 7;
  Bitset.set b 63;
  Alcotest.(check bool) "bit 0" true (Bitset.get b 0);
  Alcotest.(check bool) "bit 7" true (Bitset.get b 7);
  Alcotest.(check bool) "bit 8" false (Bitset.get b 8);
  Alcotest.(check bool) "bit 63" true (Bitset.get b 63);
  Alcotest.(check int) "count" 3 (Bitset.count b);
  Bitset.clear b 7;
  Alcotest.(check bool) "cleared" false (Bitset.get b 7);
  Bitset.assign b 7 true;
  Alcotest.(check bool) "assigned" true (Bitset.get b 7)

let test_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.get b (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b 10)

let test_first_set_from () =
  let b = Bitset.create 100 in
  Bitset.set b 13;
  Bitset.set b 57;
  Alcotest.(check (option int)) "from 0" (Some 13) (Bitset.first_set_from b 0);
  Alcotest.(check (option int)) "from 13" (Some 13) (Bitset.first_set_from b 13);
  Alcotest.(check (option int)) "from 14" (Some 57) (Bitset.first_set_from b 14);
  Alcotest.(check (option int)) "from 58" None (Bitset.first_set_from b 58);
  Alcotest.(check (option int)) "past end" None (Bitset.first_set_from b 100)

let test_find_run () =
  let b = Bitset.create 40 in
  (* runs: [3,4], [10..14], [20..39] *)
  Bitset.set_range b 3 2;
  Bitset.set_range b 10 5;
  Bitset.set_range b 20 20;
  Alcotest.(check (option int)) "run 1" (Some 3) (Bitset.find_run b 1);
  Alcotest.(check (option int)) "run 2" (Some 3) (Bitset.find_run b 2);
  Alcotest.(check (option int)) "run 3 first-fit" (Some 10) (Bitset.find_run b 3);
  Alcotest.(check (option int)) "run 5" (Some 10) (Bitset.find_run b 5);
  Alcotest.(check (option int)) "run 6" (Some 20) (Bitset.find_run b 6);
  Alcotest.(check (option int)) "run 20" (Some 20) (Bitset.find_run b 20);
  Alcotest.(check (option int)) "run 21" None (Bitset.find_run b 21)

let test_run_at_end () =
  let b = Bitset.create 16 in
  Bitset.set_range b 14 2;
  Alcotest.(check (option int)) "run touching the end" (Some 14) (Bitset.find_run b 2);
  Alcotest.(check (option int)) "too long" None (Bitset.find_run b 3)

let test_ranges () =
  let b = Bitset.create 32 in
  Bitset.set_range b 4 10;
  Alcotest.(check int) "count" 10 (Bitset.count b);
  Bitset.clear_range b 6 3;
  Alcotest.(check int) "count after clear" 7 (Bitset.count b);
  Alcotest.(check bool) "bit 5" true (Bitset.get b 5);
  Alcotest.(check bool) "bit 6" false (Bitset.get b 6);
  Alcotest.(check bool) "bit 9" true (Bitset.get b 9)

let test_or_into () =
  let a = Bitset.create 20 and b = Bitset.create 20 in
  Bitset.set a 1;
  Bitset.set b 2;
  Bitset.set b 19;
  Bitset.or_into ~into:a b;
  Alcotest.(check int) "count" 3 (Bitset.count a);
  Alcotest.(check bool) "bit 1" true (Bitset.get a 1);
  Alcotest.(check bool) "bit 2" true (Bitset.get a 2);
  Alcotest.(check bool) "bit 19" true (Bitset.get a 19);
  (* src unchanged *)
  Alcotest.(check int) "src count" 2 (Bitset.count b)

let test_intersects () =
  let a = Bitset.create 16 and b = Bitset.create 16 in
  Bitset.set a 3;
  Bitset.set b 4;
  Alcotest.(check bool) "disjoint" false (Bitset.intersects a b);
  Bitset.set b 3;
  Alcotest.(check bool) "overlap" true (Bitset.intersects a b)

let test_copy_equal () =
  let a = Bitset.create 9 in
  Bitset.set a 8;
  let b = Bitset.create 9 in
  Bitset.copy_into ~into:b a;
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Bitset.clear b 8;
  Alcotest.(check bool) "independent" true (Bitset.get a 8);
  Alcotest.(check bool) "not equal" false (Bitset.equal a b);
  Alcotest.(check bool) "length mismatch rejected" true
    (try Bitset.copy_into ~into:(Bitset.create 10) a; false with Invalid_argument _ -> true)

(* Words land at their bit positions, and bits past the length are
   dropped, so the word scans still see a clear padding. *)
let test_init_words () =
  let b = Bitset.init_words 70 (fun k -> if k = 0 then 0x5L else -1L) in
  Alcotest.(check int) "count" (2 + 6) (Bitset.count b);
  Alcotest.(check bool) "bit 2" true (Bitset.get b 2);
  Alcotest.(check bool) "bit 64" true (Bitset.get b 64);
  let r = Bitset.create 70 in
  Bitset.set r 0;
  Bitset.set r 2;
  Bitset.set_range r 64 6;
  Alcotest.(check bool) "equal to bit-wise" true (Bitset.equal r b);
  Alcotest.(check int) "empty" 0 (Bitset.length (Bitset.init_words 0 (fun _ -> -1L)))

let test_intersects_early_exit () =
  (* Regression for the all-bytes scan: the hit must be found wherever it
     is, including exactly on and around word boundaries, in otherwise
     disjoint bitmaps. *)
  List.iter
    (fun (len, i) ->
       let a = Bitset.create len and b = Bitset.create len in
       Bitset.set a i;
       Bitset.set b i;
       Alcotest.(check bool) (Printf.sprintf "hit at %d/%d" i len) true
         (Bitset.intersects a b);
       Bitset.clear b i;
       if i + 1 < len then Bitset.set b (i + 1);
       Alcotest.(check bool) (Printf.sprintf "miss at %d/%d" i len) false
         (Bitset.intersects a b))
    [ (1, 0); (64, 63); (65, 64); (128, 127); (200, 128); (200, 199); (57344, 57343) ]

let test_iter_set () =
  let b = Bitset.create 10 in
  List.iter (Bitset.set b) [ 2; 5; 9 ];
  let acc = ref [] in
  Bitset.iter_set (fun i -> acc := i :: !acc) b;
  Alcotest.(check (list int)) "iter_set ascending" [ 2; 5; 9 ] (List.rev !acc)

let gen_bits = QCheck2.Gen.(list_size (int_range 1 200) bool)

let of_bools l =
  let b = Bitset.create (List.length l) in
  List.iteri (fun i v -> if v then Bitset.set b i) l;
  b

let prop_count =
  QCheck2.Test.make ~name:"Bitset.count equals the number of set bits" gen_bits (fun l ->
      Bitset.count (of_bools l) = List.length (List.filter Fun.id l))

let prop_first_set =
  QCheck2.Test.make ~name:"Bitset.first_set is the least set bit" gen_bits (fun l ->
      let expected =
        List.mapi (fun i v -> (i, v)) l
        |> List.find_opt snd |> Option.map fst
      in
      Bitset.first_set (of_bools l) = expected)

(* Patterns that exercise the word scan of [find_run]: uniform random
   bits; runs of random length between random gaps, so runs cross zero,
   one or two word boundaries and whole words are all ones, optionally
   with a run that ends at the last bit; and round-robin ownership maps,
   the slot bitmaps the paper's distribution gives each node. *)
let gen_run_pattern =
  let open QCheck2.Gen in
  let* len = int_range 1 300 in
  let random = list_repeat len bool in
  let runs =
    let* segs = list_size (int_range 1 12) (pair (int_range 0 40) (int_range 1 140)) in
    let* to_end = int_range 0 140 in
    let a = Array.make len false in
    let pos = ref 0 in
    List.iter
      (fun (gap, run) ->
         pos := !pos + gap;
         for i = !pos to min (len - 1) (!pos + run - 1) do a.(i) <- true done;
         pos := !pos + run + 1)
      segs;
    for i = max 0 (len - to_end) to len - 1 do a.(i) <- true done;
    return (Array.to_list a)
  in
  let round_robin =
    let* nodes = int_range 1 9 in
    let* owner = int_range 0 (nodes - 1) in
    return (List.init len (fun i -> i mod nodes = owner))
  in
  pair (oneof [ random; runs; round_robin ]) (int_range 1 130)

let prop_find_run =
  QCheck2.Test.make ~name:"Bitset.find_run finds the first adequate run" ~count:1000
    ~print:(fun (l, n) ->
        Printf.sprintf "n=%d %s" n (String.concat "" (List.map (fun b -> if b then "1" else "0") l)))
    gen_run_pattern
    (fun (l, n) ->
       let r = Bitset_ref.create (List.length l) in
       List.iteri (fun i v -> if v then Bitset_ref.set r i) l;
       Bitset.find_run (of_bools l) n = Bitset_ref.find_run r n)

(* The slot scans run on every isomalloc and must not allocate: at most
   the [Some] of a result per call. The map is node 3's bitmap under the
   round-robin distribution over 8 nodes, the paper geometry. *)
let test_scans_allocate_nothing () =
  let bits = 57344 in
  let b = Bitset.create bits and other = Bitset.create bits in
  for i = 0 to bits - 1 do
    if i mod 8 = 3 then Bitset.set b i else if i mod 8 = 4 then Bitset.set other i
  done;
  let calls = 1000 in
  let words_per_call f =
    Gc.minor ();
    let before = Gc.minor_words () in
    for i = 1 to calls do
      f i
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  List.iter
    (fun (name, f) ->
       let w = words_per_call f in
       if w > 2. then Alcotest.failf "%s: %.2f minor words per call" name w)
    [
      ("find_run 2", fun _ -> ignore (Sys.opaque_identity (Bitset.find_run b 2)));
      ("find_run 1", fun _ -> ignore (Sys.opaque_identity (Bitset.find_run b 1)));
      ("first_set_from", fun i -> ignore (Sys.opaque_identity (Bitset.first_set_from b (i * 50))));
      ("next_set_from", fun i -> ignore (Sys.opaque_identity (Bitset.next_set_from b (i * 50))));
      ("count", fun _ -> ignore (Sys.opaque_identity (Bitset.count b)));
      ("intersects", fun _ -> ignore (Sys.opaque_identity (Bitset.intersects b other)));
      ("iter_set", fun _ -> Bitset.iter_set (fun _ -> ()) b);
    ];
  Alcotest.(check bool) "round-robin map has no run of 2" true (Bitset.find_run b 2 = None)

let prop_or =
  QCheck2.Test.make ~name:"or_into sets exactly the union"
    QCheck2.Gen.(pair (list_size (return 64) bool) (list_size (return 64) bool))
    (fun (la, lb) ->
       let a = of_bools la and b = of_bools lb in
       Bitset.or_into ~into:a b;
       let ok = ref true in
       List.iteri
         (fun i x ->
            let y = List.nth lb i in
            if Bitset.get a i <> (x || y) then ok := false)
         la;
       !ok)

(* Random op sequences replayed against the bit-by-bit reference model:
   the word-level scans must agree with the executable specification on
   every intermediate state, not just on final images. *)
let prop_differential =
  QCheck2.Test.make ~name:"Bitset agrees with the reference model on random ops"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 300)
        (list_size (int_range 1 120) (triple (int_range 0 5) nat nat)))
    (fun (len, ops) ->
       let w = Bitset.create len and r = Bitset_ref.create len in
       let ok = ref true in
       let chk b = if not b then ok := false in
       List.iter
         (fun (kind, a, b) ->
            let i = a mod len in
            match kind with
            | 0 ->
              Bitset.set w i;
              Bitset_ref.set r i
            | 1 ->
              Bitset.clear w i;
              Bitset_ref.clear r i
            | 2 ->
              let n = min (b mod 80) (len - i) in
              Bitset.set_range w i n;
              Bitset_ref.set_range r i n
            | 3 ->
              let n = min (b mod 80) (len - i) in
              Bitset.clear_range w i n;
              Bitset_ref.clear_range r i n
            | 4 -> chk (Bitset.get w i = Bitset_ref.get r i)
            | _ ->
              chk (Bitset.count w = Bitset_ref.count r);
              chk (Bitset.first_set_from w i = Bitset_ref.first_set_from r i);
              let n = 1 + (b mod 8) in
              chk (Bitset.find_run w n = Bitset_ref.find_run r n))
         ops;
       chk (Bitset.count w = Bitset_ref.count r);
       chk (Bitset.first_set w = Bitset_ref.first_set r);
       !ok)

(* Ids filed per node in bitsets that grow by [extend] when an id
   outgrows them, as the cluster's per-node thread indexes are, against a
   per-node [Map.Make (Int)] model: adds, removes and moves of ids
   between nodes, with ids that cross word boundaries and force growth
   from an empty set. *)
module Int_map = Map.Make (Int)

type index_op =
  | Add of int * int (* node, id *)
  | Remove of int * int
  | Move of int * int * int (* id, from, to *)

let index_nodes = 3

let print_index_op = function
  | Add (n, i) -> Printf.sprintf "Add(%d,%d)" n i
  | Remove (n, i) -> Printf.sprintf "Remove(%d,%d)" n i
  | Move (i, a, b) -> Printf.sprintf "Move(%d,%d->%d)" i a b

let prop_grown_index =
  let open QCheck2.Gen in
  let id = oneof [ int_range 0 40; int_range 0 300; oneofl [ 31; 32; 63; 64; 127; 128; 255; 256 ] ] in
  let node = int_range 0 (index_nodes - 1) in
  let op =
    oneof
      [ map2 (fun n i -> Add (n, i)) node id; map2 (fun n i -> Remove (n, i)) node id;
        map3 (fun i a b -> Move (i, a, b)) id node node ]
  in
  QCheck2.Test.make ~name:"grown per-node bitsets agree with a Map model" ~count:300
    ~print:QCheck2.Print.(list print_index_op)
    (list_size (int_range 0 120) op)
    (fun ops ->
       let sets = Array.make index_nodes (Bitset.create 0) in
       let model = Array.make index_nodes Int_map.empty in
       let add n i =
         if i >= Bitset.length sets.(n) then
           sets.(n) <- Bitset.extend sets.(n) (max (2 * Bitset.length sets.(n)) (i + 1));
         Bitset.set sets.(n) i;
         model.(n) <- Int_map.add i () model.(n)
       and remove n i =
         if i < Bitset.length sets.(n) then Bitset.clear sets.(n) i;
         model.(n) <- Int_map.remove i model.(n)
       in
       (* Members ascending through [iter_set] and a [next_set_from] walk,
          [next_set_from] from every start, and [count]. *)
       let agree n =
         let s = sets.(n) and m = model.(n) in
         let keys = List.map fst (Int_map.bindings m) in
         let iterated = ref [] in
         Bitset.iter_set (fun i -> iterated := i :: !iterated) s;
         let rec walk i acc =
           match Bitset.next_set_from s i with -1 -> List.rev acc | j -> walk (j + 1) (j :: acc)
         in
         List.rev !iterated = keys
         && walk 0 [] = keys
         && Bitset.count s = Int_map.cardinal m
         && List.for_all
              (fun i ->
                 Bitset.next_set_from s i
                 = match Int_map.find_first_opt (fun k -> k >= i) m with
                   | Some (k, ()) -> k
                   | None -> -1)
              (List.init 520 (fun i -> i - 2))
       in
       List.for_all
         (fun op ->
            (match op with
             | Add (n, i) -> add n i
             | Remove (n, i) -> remove n i
             | Move (i, a, b) ->
               remove a i;
               add b i);
            List.for_all agree (List.init index_nodes Fun.id))
         ops)

let test_extend () =
  let b = Bitset.create 70 in
  List.iter (Bitset.set b) [ 0; 63; 64; 69 ];
  let e = Bitset.extend b 200 in
  Alcotest.(check int) "length" 200 (Bitset.length e);
  Alcotest.(check (list int)) "same bits" [ 0; 63; 64; 69 ]
    (let l = ref [] in
     Bitset.iter_set (fun i -> l := i :: !l) e;
     List.rev !l);
  Bitset.set e 199;
  Alcotest.(check int) "original untouched" 4 (Bitset.count b);
  Alcotest.(check int) "next_set_from past the old end" 199 (Bitset.next_set_from e 70);
  Alcotest.(check int) "next_set_from past the end" (-1) (Bitset.next_set_from e 200);
  Alcotest.(check bool) "extend to the same length is equal" true
    (Bitset.equal b (Bitset.extend b 70));
  Alcotest.check_raises "shrinking" (Invalid_argument "Bitset.extend") (fun () ->
      ignore (Bitset.extend b 69))

let tests =
  [
    Alcotest.test_case "extend" `Quick test_extend;
    QCheck_alcotest.to_alcotest prop_grown_index;
    Alcotest.test_case "create empty" `Quick test_create_empty;
    Alcotest.test_case "set/get/clear" `Quick test_set_get_clear;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "first_set_from" `Quick test_first_set_from;
    Alcotest.test_case "find_run first-fit" `Quick test_find_run;
    Alcotest.test_case "run at the end" `Quick test_run_at_end;
    Alcotest.test_case "set/clear ranges" `Quick test_ranges;
    Alcotest.test_case "or_into" `Quick test_or_into;
    Alcotest.test_case "intersects" `Quick test_intersects;
    Alcotest.test_case "intersects at word boundaries" `Quick test_intersects_early_exit;
    Alcotest.test_case "copy/equal" `Quick test_copy_equal;
    Alcotest.test_case "init_words" `Quick test_init_words;
    Alcotest.test_case "iter_set" `Quick test_iter_set;
    Alcotest.test_case "scans allocate nothing" `Quick test_scans_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_count;
    QCheck_alcotest.to_alcotest prop_first_set;
    QCheck_alcotest.to_alcotest prop_find_run;
    QCheck_alcotest.to_alcotest prop_or;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
