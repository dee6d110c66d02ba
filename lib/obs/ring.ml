type record = {
  time : float;
  node : int;
  event : Event.t;
}

(* Columns, so a push stores a float, an int and a pointer and allocates
   nothing: no record, no [Some]. Slots past [len] hold [blank]. *)
type t = {
  times : Float.Array.t;
  nodes : int array;
  events : Event.t array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

let blank = Event.Node_kill { node = -1 }

let create ~capacity =
  if capacity < 0 then invalid_arg "Ring.create: capacity < 0";
  {
    times = Float.Array.make capacity 0.;
    nodes = Array.make capacity 0;
    events = Array.make capacity blank;
    head = 0;
    len = 0;
    dropped = 0;
  }

let capacity t = Array.length t.events

let length t = t.len

let dropped t = t.dropped

let push t ~time ~node event =
  let cap = Array.length t.events in
  if cap = 0 then t.dropped <- t.dropped + 1
  else begin
    let i = t.head in
    Float.Array.unsafe_set t.times i time;
    Array.unsafe_set t.nodes i node;
    Array.unsafe_set t.events i event;
    t.head <- (if i + 1 = cap then 0 else i + 1);
    if t.len < cap then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

let clear t =
  Array.fill t.events 0 (Array.length t.events) blank;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

(* Oldest first. A zero-capacity ring holds nothing (and must not reach
   the [mod cap], which would divide by zero). *)
let iter f t =
  let cap = Array.length t.events in
  if cap > 0 then begin
    let start = (t.head - t.len + cap) mod cap in
    for k = 0 to t.len - 1 do
      let i = (start + k) mod cap in
      f { time = Float.Array.get t.times i; node = t.nodes.(i); event = t.events.(i) }
    done
  end

let to_list t =
  let acc = ref [] in
  iter (fun r -> acc := r :: !acc) t;
  List.rev !acc

let sink t = Sink.make ~name:"ring" (fun ~time ~node event -> push t ~time ~node event)
