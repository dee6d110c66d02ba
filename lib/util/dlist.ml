type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable linked : bool;
}

type 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
}

let create () = { head = None; tail = None; len = 0 }

let is_empty t = t.len = 0

let length t = t.len

let value n = n.v

let push_back t v =
  let n = { v; prev = t.tail; next = None; linked = true } in
  (match t.tail with
   | None -> t.head <- Some n
   | Some old -> old.next <- Some n);
  t.tail <- Some n;
  t.len <- t.len + 1;
  n

let push_front t v =
  let n = { v; prev = None; next = t.head; linked = true } in
  (match t.head with
   | None -> t.tail <- Some n
   | Some old -> old.prev <- Some n);
  t.head <- Some n;
  t.len <- t.len + 1;
  n

let remove t n =
  if not n.linked then invalid_arg "Dlist.remove: node not linked";
  (match n.prev with
   | None -> t.head <- n.next
   | Some p -> p.next <- n.next);
  (match n.next with
   | None -> t.tail <- n.prev
   | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.linked <- false;
  t.len <- t.len - 1

let pop_front t =
  match t.head with
  | None -> invalid_arg "Dlist.pop_front: empty"
  | Some n -> remove t n; n.v

let remove_if p t =
  let rec loop = function
    | None -> ()
    | Some n ->
      let next = n.next in
      if p n.v then remove t n;
      loop next
  in
  loop t.head

let peek_front t = Option.map (fun n -> n.v) t.head

let iter f t =
  let rec loop = function
    | None -> ()
    | Some n ->
      let next = n.next in
      f n.v;
      loop next
  in
  loop t.head

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc

let exists p t = List.exists p (to_list t)
