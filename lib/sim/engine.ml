type time = float

type event = {
  at : time;
  seq : int;
  run : unit -> unit;
}

(* Binary min-heap on (at, seq). *)
module Heap = struct
  type t = {
    mutable data : event array;
    mutable len : int;
  }

  let dummy = { at = 0.; seq = 0; run = ignore }

  let create () = { data = Array.make 64 dummy; len = 0 }

  let lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h e =
    if h.len = Array.length h.data then begin
      let data = Array.make (2 * h.len) dummy in
      Array.blit h.data 0 data 0 h.len;
      h.data <- data
    end;
    h.data.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && lt h.data.(!i) h.data.((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek h = if h.len = 0 then None else Some h.data.(0)

  let pop h =
    if h.len = 0 then invalid_arg "Engine: empty heap";
    let top = h.data.(0) in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    h.data.(h.len) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && lt h.data.(l) h.data.(!smallest) then smallest := l;
      if r < h.len && lt h.data.(r) h.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top
end

type t = {
  heap : Heap.t;
  mutable clock : time;
  mutable next_seq : int;
}

let create () = { heap = Heap.create (); clock = 0.; next_seq = 0 }

let now t = t.clock

let schedule t ~at f =
  if at < t.clock then
    invalid_arg (Printf.sprintf "Engine.schedule: at=%g < now=%g" at t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.heap { at; seq; run = f }

(* [Stdlib.max] specialised to floats: the same [>=] test, without the
   polymorphic compare it makes on every call. Not [Float.max], whose
   NaN and -0 rules differ. *)
let fmax (a : float) b = if a >= b then a else b

let schedule_after t ~delay f = schedule t ~at:(t.clock +. fmax 0. delay) f

let next_seq t = t.next_seq

let peek_next t =
  match Heap.peek t.heap with
  | None -> None
  | Some e -> Some (e.at, e.seq)

let pending t = t.heap.Heap.len

let step t =
  match Heap.peek t.heap with
  | None -> false
  | Some _ ->
    let e = Heap.pop t.heap in
    t.clock <- fmax t.clock e.at;
    e.run ();
    true

let run ?until ?(max_events = 200_000_000) t =
  let count = ref 0 in
  let stop = ref false in
  while not !stop do
    match Heap.peek t.heap with
    | None -> stop := true
    | Some e ->
      (match until with
       | Some u when e.at > u ->
         t.clock <- fmax t.clock u;
         stop := true
       | _ ->
         incr count;
         if !count > max_events then failwith "Engine.run: max_events exceeded";
         ignore (step t))
  done;
  t.clock
