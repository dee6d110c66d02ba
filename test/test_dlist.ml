open Pm2_util

let test_fifo () =
  let q = Dlist.create () in
  Alcotest.(check bool) "empty" true (Dlist.is_empty q);
  ignore (Dlist.push_back q 1);
  ignore (Dlist.push_back q 2);
  ignore (Dlist.push_back q 3);
  Alcotest.(check int) "length" 3 (Dlist.length q);
  Alcotest.(check int) "pop 1" 1 (Dlist.pop_front q);
  Alcotest.(check int) "pop 2" 2 (Dlist.pop_front q);
  Alcotest.(check int) "pop 3" 3 (Dlist.pop_front q);
  Alcotest.(check bool) "empty again" true (Dlist.is_empty q)

let test_push_front () =
  let q = Dlist.create () in
  ignore (Dlist.push_back q 2);
  ignore (Dlist.push_front q 1);
  Alcotest.(check (list int)) "order" [ 1; 2 ] (Dlist.to_list q)

let test_remove_middle () =
  let q = Dlist.create () in
  let _a = Dlist.push_back q 'a' in
  let b = Dlist.push_back q 'b' in
  let _c = Dlist.push_back q 'c' in
  Dlist.remove q b;
  Alcotest.(check (list char)) "removed middle" [ 'a'; 'c' ] (Dlist.to_list q);
  Alcotest.(check int) "length" 2 (Dlist.length q)

let test_remove_ends () =
  let q = Dlist.create () in
  let a = Dlist.push_back q 1 in
  let _b = Dlist.push_back q 2 in
  let c = Dlist.push_back q 3 in
  Dlist.remove q a;
  Dlist.remove q c;
  Alcotest.(check (list int)) "middle remains" [ 2 ] (Dlist.to_list q)

let test_remove_twice () =
  let q = Dlist.create () in
  let a = Dlist.push_back q 1 in
  Dlist.remove q a;
  Alcotest.check_raises "double remove" (Invalid_argument "Dlist.remove: node not linked")
    (fun () -> Dlist.remove q a)

let test_peek_empty_pop () =
  let q = Dlist.create () in
  Alcotest.(check (option int)) "peek empty" None (Dlist.peek_front q);
  ignore (Dlist.push_back q 9);
  Alcotest.(check (option int)) "peek" (Some 9) (Dlist.peek_front q);
  Alcotest.(check int) "peek does not remove" 1 (Dlist.length q);
  ignore (Dlist.pop_front q);
  Alcotest.check_raises "pop empty" (Invalid_argument "Dlist.pop_front: empty") (fun () ->
      ignore (Dlist.pop_front q))

let test_exists_value () =
  let q = Dlist.create () in
  let n = Dlist.push_back q 42 in
  Alcotest.(check int) "value" 42 (Dlist.value n);
  Alcotest.(check bool) "exists" true (Dlist.exists (fun x -> x = 42) q);
  Alcotest.(check bool) "not exists" false (Dlist.exists (fun x -> x = 1) q)

let prop_queue_model =
  (* Random interleavings of push_back/pop_front behave like a FIFO. *)
  QCheck2.Test.make ~name:"Dlist behaves like a FIFO queue"
    QCheck2.Gen.(list (option small_int))
    (fun ops ->
       let q = Dlist.create () in
       let model = Queue.create () in
       List.for_all
         (fun op ->
            match op with
            | Some x ->
              ignore (Dlist.push_back q x);
              Queue.push x model;
              true
            | None ->
              (match Queue.take_opt model with
               | None -> Dlist.is_empty q
               | Some expected -> Dlist.pop_front q = expected))
         ops
       && Dlist.to_list q = List.of_seq (Queue.to_seq model))

let test_remove_if () =
  (* One pass unlinks the matches anywhere in the list, ends included;
     the rest keep their order and the list stays usable. *)
  let q = Dlist.create () in
  List.iter (fun x -> ignore (Dlist.push_back q x)) [ 1; 2; 3; 4; 5; 6 ];
  let seen = ref [] in
  Dlist.remove_if
    (fun x ->
      seen := x :: !seen;
      x = 1 || x mod 3 = 0 || x = 6)
    q;
  Alcotest.(check (list int)) "each value seen once, in order" [ 1; 2; 3; 4; 5; 6 ]
    (List.rev !seen);
  Alcotest.(check (list int)) "the rest in order" [ 2; 4; 5 ] (Dlist.to_list q);
  Alcotest.(check int) "length" 3 (Dlist.length q);
  ignore (Dlist.push_back q 7);
  Alcotest.(check (list int)) "still a queue" [ 2; 4; 5; 7 ] (Dlist.to_list q)

let tests =
  [
    Alcotest.test_case "FIFO order" `Quick test_fifo;
    Alcotest.test_case "push_front" `Quick test_push_front;
    Alcotest.test_case "remove middle node" `Quick test_remove_middle;
    Alcotest.test_case "remove end nodes" `Quick test_remove_ends;
    Alcotest.test_case "remove twice rejected" `Quick test_remove_twice;
    Alcotest.test_case "peek and empty pop" `Quick test_peek_empty_pop;
    Alcotest.test_case "exists/value" `Quick test_exists_value;
    QCheck_alcotest.to_alcotest prop_queue_model;
    Alcotest.test_case "remove_if keeps order" `Quick test_remove_if;
  ]
